package workload

import (
	"fmt"
	"math/rand"

	"mptcp/internal/sim"
)

// Object is one fetchable resource of a web page. Deps index objects
// earlier in the page's slice that must complete before this fetch may
// start (the HTML before its stylesheets, a script before the images it
// inserts). Restricting dependencies to earlier indices makes every
// page a DAG by construction.
type Object struct {
	Pkts int64
	Deps []int
}

// Page is one dependency-ordered object graph.
type Page struct {
	Objects []Object
}

// validate panics on malformed pages — a construction bug, not input.
func (p Page) validate() {
	if len(p.Objects) == 0 {
		panic("workload: page has no objects")
	}
	for i, o := range p.Objects {
		if o.Pkts < 1 {
			panic(fmt.Sprintf("workload: page object %d has %d packets", i, o.Pkts))
		}
		for _, d := range o.Deps {
			if d < 0 || d >= i {
				panic(fmt.Sprintf("workload: page object %d depends on %d (deps must point to earlier objects)", i, d))
			}
		}
	}
}

// FetchPage fetches a page's objects through spawn, starting each
// object the instant its dependencies have completed (independent
// objects fetch concurrently, as browsers do), and calls done with the
// page-load time — first fetch issued to last object completed — once
// the whole graph has loaded. One call fetches one page; the caller
// owns pacing and repetition.
func FetchPage(env *Env, p Page, done func(plt sim.Time)) {
	p.validate()
	start := env.Sim.Now()
	waiting := make([]int, len(p.Objects)) // unmet dependency count
	dependents := make([][]int, len(p.Objects))
	for i, o := range p.Objects {
		waiting[i] = len(o.Deps)
		for _, d := range o.Deps {
			dependents[d] = append(dependents[d], i)
		}
	}
	remaining := len(p.Objects)
	var fetch func(i int)
	fetch = func(i int) {
		env.Spawn(p.Objects[i].Pkts, func() {
			remaining--
			if remaining == 0 {
				done(env.Sim.Now() - start)
				return
			}
			for _, j := range dependents[i] {
				waiting[j]--
				if waiting[j] == 0 {
					fetch(j)
				}
			}
		})
	}
	// Issue the roots in index order after wiring the whole graph, so a
	// synchronously-completing spawn (not possible with a real
	// transport, but unit tests fake it) cannot observe a half-built
	// dependency table.
	for i := range p.Objects {
		if waiting[i] == 0 {
			fetch(i)
		}
	}
}

// Web is the page-browsing workload: Sessions independent users, each
// cycling think → load page → think, each page drawn by randomPage.
// Stats.Latency summarises page-load time in seconds; Issued/Completed
// count whole pages.
type Web struct {
	Sessions  int
	ThinkMean sim.Time // exponential think time between pages
}

func (w Web) Name() string { return "web" }

func (w Web) Install(env *Env) *Stats {
	st := newStats()
	for i := 0; i < w.Sessions; i++ {
		s := &webSession{w: w, env: env, st: st}
		s.think()
	}
	return st
}

type webSession struct {
	w   Web
	env *Env
	st  *Stats
}

func (s *webSession) think() {
	gap := sim.Time(s.env.Sim.Rand().ExpFloat64() * float64(s.w.ThinkMean))
	s.env.Sim.After(gap, s.load)
}

func (s *webSession) load() {
	if s.env.Sim.Now() >= s.env.End {
		return
	}
	s.st.Issued++
	FetchPage(s.env, randomPage(s.env.Sim.Rand()), func(plt sim.Time) {
		s.st.Completed++
		s.st.Latency.Add(plt.Seconds())
		s.think()
	})
}

// randomPage draws a small web page: one HTML root, a few stylesheets
// and scripts depending on the root, and a handful of images each
// depending on the root plus one random script (the script "inserted"
// it). Sizes and counts are modest so a page is mice-sized — tens of
// packets — which is what makes page-load time scheduler-sensitive.
func randomPage(r *rand.Rand) Page {
	objs := []Object{{Pkts: 6}} // the HTML document
	nScript := 2 + r.Intn(3)
	for i := 0; i < nScript; i++ {
		objs = append(objs, Object{Pkts: int64(3 + r.Intn(8)), Deps: []int{0}})
	}
	nImg := 3 + r.Intn(5)
	for i := 0; i < nImg; i++ {
		script := 1 + r.Intn(nScript)
		objs = append(objs, Object{Pkts: int64(2 + r.Intn(12)), Deps: []int{0, script}})
	}
	return Page{Objects: objs}
}
