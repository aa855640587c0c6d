package harness

import (
	"fmt"
	"sync"
	"time"

	"mptcp/internal/chaos"
	"mptcp/internal/sim"
)

// Clock is a scenario.Clock on wall time, so a scenario script drives
// real sockets: Now is the time since NewClock, and At runs f on a
// time.AfterFunc. Callbacks run one at a time under mu, as events do on
// the simulator: a directive's step keeps unsynchronised state, which
// the next step, on another timer's goroutine, reads. None runs once
// Stop has returned; a timer still pending then fires as a no-op. A
// periodic directive keeps one timer pending, so a stopped script holds
// one per directive at most.
type Clock struct {
	start   time.Time
	mu      sync.Mutex // held while a callback runs
	stopped bool
}

// NewClock starts a wall clock at zero.
func NewClock() *Clock { return &Clock{start: time.Now()} }

// Now returns the time since the clock started.
func (c *Clock) Now() sim.Time { return sim.Time(time.Since(c.start)) }

// At runs f at time t after the clock's start, or at once if t has
// passed, unless the clock is stopped by then.
func (c *Clock) At(t sim.Time, f func()) {
	time.AfterFunc(time.Until(c.start.Add(time.Duration(t))), func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if !c.stopped {
			f()
		}
	})
}

// Stop waits out a running callback and runs no more.
func (c *Clock) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
}

// Link is a scenario.Link over one subflow's chaos Paths. Paths[0]
// carries the data direction, which Delay, Rate and SetRate address;
// SetDown, SetDelay and SetLossRate act on every Path. Each change is
// logged under Name (Log may be nil).
type Link struct {
	Name  string
	Paths []*chaos.Path
	Log   *chaos.Log
}

// set applies f to the first n Paths and logs the change.
func (l Link) set(ev string, v any, n int, f func(*chaos.PathConfig)) {
	for _, p := range l.Paths[:n] {
		p.Update(f)
	}
	l.Log.Emit(chaos.Event{Ev: ev, Path: l.Name, Detail: fmt.Sprint(v)})
}

// data returns the data direction's fault model.
func (l Link) data() (c chaos.PathConfig) {
	l.Paths[0].Update(func(p *chaos.PathConfig) { c = *p })
	return c
}

func (l Link) SetDown(down bool) {
	ev := "heal"
	if down {
		ev = "kill"
	}
	for _, p := range l.Paths {
		p.SetDown(down)
	}
	l.Log.Emit(chaos.Event{Ev: ev, Path: l.Name, Detail: "scenario"})
}

func (l Link) Delay() sim.Time { return sim.Time(l.data().Delay) }

func (l Link) Rate() float64 { return l.data().RateBps / 1e6 }

func (l Link) SetDelay(d sim.Time) {
	l.set("delay", d, len(l.Paths), func(c *chaos.PathConfig) { c.Delay = time.Duration(d) })
}

func (l Link) SetRate(mbps float64) {
	l.set("rate", mbps, 1, func(c *chaos.PathConfig) { c.RateBps = mbps * 1e6 })
}

func (l Link) SetLossRate(p float64) {
	l.set("loss", p, len(l.Paths), func(c *chaos.PathConfig) { c.LossRate = p })
}
