package workload

import (
	"reflect"
	"testing"

	"mptcp/internal/sim"
)

// fakeEnv is a workload Env over a bare simulator whose spawner
// completes each transfer after pkts × perPkt of simulated time — a
// transport with perfectly deterministic service, so workload
// accounting can be checked by hand.
func fakeEnv(seed int64, end sim.Time, perPkt sim.Time) (*sim.Simulator, *Env, *[]sim.Time) {
	s := sim.New(seed)
	var issuedAt []sim.Time
	env := &Env{Sim: s, End: end}
	env.Spawn = func(pkts int64, done func()) {
		issuedAt = append(issuedAt, s.Now())
		s.After(sim.Time(pkts)*perPkt, done)
	}
	return s, env, &issuedAt
}

// TestRegistry: every builtin is described and builds a workload of its
// own name. The catalogue's order and lookup rule are pinned in
// internal/registry's TestCatalogues.
func TestRegistry(t *testing.T) {
	for _, in := range Infos() {
		if in.Desc == "" {
			t.Errorf("workload %s has no description", in.Name)
		}
		if w := MustBuild(in.Name, 30*sim.Second); w.Name() != in.Name {
			t.Errorf("MustBuild(%q).Name() = %q", in.Name, w.Name())
		}
	}
}

// TestFetchPageDependencyOrder: an object is spawned at the instant its
// last dependency completes, never earlier; independent objects fetch
// concurrently.
func TestFetchPageDependencyOrder(t *testing.T) {
	s := sim.New(1)
	var order []int
	pending := map[int]func(){}
	next := 0
	env := &Env{Sim: s, End: sim.Second}
	env.Spawn = func(pkts int64, done func()) {
		order = append(order, next)
		pending[next] = done
		next++
	}
	// Spawn indices follow object indices here because sizes are the
	// object index + 1 — so `order` records which objects were issued.
	p := Page{Objects: []Object{
		{Pkts: 1},                    // 0: root
		{Pkts: 2, Deps: []int{0}},    // 1
		{Pkts: 3, Deps: []int{0}},    // 2
		{Pkts: 4, Deps: []int{1, 2}}, // 3: needs both
	}}
	doneCalled := false
	FetchPage(env, p, func(plt sim.Time) { doneCalled = true })
	if !reflect.DeepEqual(order, []int{0}) {
		t.Fatalf("before root completes, spawned %v, want [0]", order)
	}
	pending[0]()
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("after root, spawned %v, want [0 1 2]", order)
	}
	pending[2]() // only one of object 3's two deps met
	if len(order) != 3 {
		t.Fatalf("object 3 started with an unmet dependency: %v", order)
	}
	pending[1]()
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("after both deps, spawned %v, want [0 1 2 3]", order)
	}
	if doneCalled {
		t.Fatal("page done before its last object")
	}
	pending[3]()
	if !doneCalled {
		t.Fatal("page never completed")
	}
}

// TestFetchPagePLTHandComputed: with a transport serving 10 ms per
// packet, a root of 4 packets followed by a dependent object of 2
// packets loads in exactly 40 + 20 ms.
func TestFetchPagePLTHandComputed(t *testing.T) {
	s, env, _ := fakeEnv(1, sim.Second, 10*sim.Millisecond)
	var plt sim.Time
	FetchPage(env, Page{Objects: []Object{
		{Pkts: 4},
		{Pkts: 2, Deps: []int{0}},
	}}, func(d sim.Time) { plt = d })
	s.RunUntil(sim.Second)
	if want := 60 * sim.Millisecond; plt != want {
		t.Fatalf("PLT = %v, want %v", plt, want)
	}
}

func TestFetchPageValidation(t *testing.T) {
	cases := []struct {
		name string
		p    Page
	}{
		{"empty page", Page{}},
		{"zero size", Page{Objects: []Object{{Pkts: 0}}}},
		{"forward dep", Page{Objects: []Object{{Pkts: 1, Deps: []int{1}}, {Pkts: 1}}}},
		{"self dep", Page{Objects: []Object{{Pkts: 1}, {Pkts: 1, Deps: []int{1}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, env, _ := fakeEnv(1, sim.Second, sim.Millisecond)
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			FetchPage(env, tc.p, func(sim.Time) {})
		})
	}
}

// TestRPCClosedLoop: every session has at most one request outstanding,
// all issued requests complete (service is finite), nothing is issued
// at or after the horizon, and the latency summary records exactly the
// deterministic service time.
func TestRPCClosedLoop(t *testing.T) {
	s, env, issuedAt := fakeEnv(3, 10*sim.Second, sim.Millisecond)
	st := RPC{Sessions: 4, ThinkMean: 100 * sim.Millisecond, ReqPkts: 8}.Install(env)
	s.RunUntil(20 * sim.Second)
	if st.Issued == 0 {
		t.Fatal("no requests issued")
	}
	if st.Issued != st.Completed {
		t.Fatalf("issued %d != completed %d after the run drained", st.Issued, st.Completed)
	}
	if st.Issued != int64(len(*issuedAt)) {
		t.Fatalf("stats count %d != spawner count %d", st.Issued, len(*issuedAt))
	}
	for _, at := range *issuedAt {
		if at >= env.End {
			t.Fatalf("request issued at %v, at/after the %v horizon", at, env.End)
		}
	}
	want := (8 * sim.Millisecond).Seconds()
	if st.Latency.Min() != want || st.Latency.Max() != want {
		t.Fatalf("latency range [%v, %v], want exactly %v", st.Latency.Min(), st.Latency.Max(), want)
	}
}

// TestVideoRebufferHandComputed traces one player by hand: 1 s chunks
// fetched in a constant 2 s each (a stream at twice the transport's
// rate), startup threshold 2, horizon 12.5 s.
//
//	t=2  chunk1: buffered 1
//	t=4  chunk2: buffered 2 → playback starts
//	t=6  chunk3: played 2 s exactly, buffer hits 0 at arrival — no stall
//	t=8  chunk4: buffer ran dry at t=7 → play 1, stall 1, rebuffer;
//	             refills only to 1 < the threshold 2, still stalled
//	t=10 chunk5: stalled 2 more s; buffered 2 → playback resumes
//	t=12 chunk6: played 2, dry exactly at arrival; buffered 1, playing
//	t=12 chunk7 issued (12 < 12.5), never completes
//	t=12.5 horizon settle: played 0.5 s more
//
// Play 5.5 s, stall 3 s, 1 rebuffer, 7 issued, 6 completed.
func TestVideoRebufferHandComputed(t *testing.T) {
	s, env, _ := fakeEnv(1, 12500*sim.Millisecond, 0)
	env.Spawn = func(pkts int64, done func()) { s.After(2*sim.Second, done) }
	st := Video{Sessions: 1, ChunkPkts: 10, ChunkDur: sim.Second, Startup: 2, AheadMax: 5}.Install(env)
	s.RunUntil(env.End)
	if st.Issued != 7 || st.Completed != 6 {
		t.Errorf("issued %d completed %d, want 7/6", st.Issued, st.Completed)
	}
	if st.PlaySec != 5.5 || st.StallSec != 3 {
		t.Errorf("play %v stall %v, want 5.5/3", st.PlaySec, st.StallSec)
	}
	if st.Rebuffers != 1 {
		t.Errorf("rebuffers %d, want 1", st.Rebuffers)
	}
	if st.Latency.Min() != 2 || st.Latency.Max() != 2 {
		t.Errorf("chunk latency [%v, %v], want exactly 2 s", st.Latency.Min(), st.Latency.Max())
	}
}

// TestVideoSmoothPlayback: when the transport outruns the stream the
// player never stalls, and the buffer cap throttles fetching instead of
// letting it run arbitrarily ahead.
func TestVideoSmoothPlayback(t *testing.T) {
	s, env, _ := fakeEnv(1, 20*sim.Second, 0)
	env.Spawn = func(pkts int64, done func()) { s.After(250*sim.Millisecond, done) }
	st := Video{Sessions: 1, ChunkPkts: 10, ChunkDur: sim.Second, Startup: 2, AheadMax: 4}.Install(env)
	s.RunUntil(env.End)
	if st.StallSec != 0 || st.Rebuffers != 0 {
		t.Errorf("smooth stream stalled: stall %v rebuffers %d", st.StallSec, st.Rebuffers)
	}
	// Playback starts at t=0.5 (two 0.25 s fetches) and never stops:
	// exactly 19.5 s of play by the horizon.
	if st.PlaySec != 19.5 {
		t.Errorf("play %v s, want 19.5", st.PlaySec)
	}
	// The cap bounds issuing: ~1 chunk per played second plus the
	// startup burst, far under the 80 an unthrottled fetcher would do.
	if st.Issued > 25 {
		t.Errorf("issued %d chunks in 20 s with a 4-chunk cap", st.Issued)
	}
}

// TestMiceAndElephants: the Poisson mice all complete with recorded
// latencies, the elephant reissues back to back, and the whole workload
// is deterministic under a fixed seed.
func TestMiceAndElephants(t *testing.T) {
	run := func() *Stats {
		s, env, _ := fakeEnv(9, 10*sim.Second, 100*sim.Microsecond)
		st := Mice{Rate: 3, MeanPkts: 20, Elephants: 1, ElephantPkts: 500}.Install(env)
		s.RunUntil(30 * sim.Second)
		return st
	}
	st := run()
	if st.Issued == 0 {
		t.Fatal("no mice arrived")
	}
	if st.Issued != st.Completed {
		t.Fatalf("mice issued %d != completed %d after drain", st.Issued, st.Completed)
	}
	if st.ElephantPkts == 0 || st.ElephantPkts%500 != 0 {
		t.Fatalf("elephant delivered %d packets, want a positive multiple of 500", st.ElephantPkts)
	}
	if st.Latency.N() != st.Completed || st.Latency.Min() <= 0 {
		t.Fatalf("mouse latency summary n=%d min=%v", st.Latency.N(), st.Latency.Min())
	}
	st2 := run()
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("same-seed runs diverge: %+v vs %+v", st, st2)
	}
}

// TestBuiltinsRunToCompletion: every registered workload installs over
// the fake transport, issues work, completes it, and is deterministic.
func TestBuiltinsRunToCompletion(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			run := func() *Stats {
				T := 10 * sim.Second
				s, env, _ := fakeEnv(5, T, 200*sim.Microsecond)
				st := MustBuild(name, T).Install(env)
				s.RunUntil(2 * T)
				return st
			}
			st := run()
			if st.Issued == 0 || st.Completed == 0 {
				t.Fatalf("%s: issued %d completed %d", name, st.Issued, st.Completed)
			}
			if !reflect.DeepEqual(st, run()) {
				t.Fatalf("%s not deterministic", name)
			}
		})
	}
}
