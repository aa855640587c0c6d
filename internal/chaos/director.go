package chaos

import (
	"fmt"
	"math/rand"
	"time"
)

// Group is a set of Paths the director treats as one unit — both
// directions of a subflow, so a kill is a partition of that subflow.
type Group struct {
	Name      string
	Paths     []*Path
	Protected bool // never killed, faults kept mild: the liveness anchor
}

// Director drives a seeded random walk over a fleet of path groups:
// every Tick it picks a group and perturbs it — kill, heal, loss step,
// delay step, reorder, duplication, corruption, partition — logging each
// action. Protected groups are never killed and keep loss below ~20%, so
// a run that guarantees one protected group per connection guarantees a
// live path and therefore completion.
type Director struct {
	Groups []Group
	Tick   time.Duration
	Log    *Log

	rng *rand.Rand
}

// NewDirector builds a director over the groups with its own rng stream.
func NewDirector(groups []Group, tick time.Duration, seed int64, log *Log) *Director {
	if tick <= 0 {
		tick = 20 * time.Millisecond
	}
	return &Director{Groups: groups, Tick: tick, Log: log, rng: rand.New(rand.NewSource(seed))}
}

// Run mutates until stop closes, then heals everything it killed so
// in-flight transfers can finish. Call from its own goroutine.
func (d *Director) Run(stop <-chan struct{}) {
	tick := time.NewTicker(d.Tick)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			d.HealAll()
			return
		case <-tick.C:
			d.mutate()
		}
	}
}

// HealAll revives every path and clears loss back to the mild baseline,
// leaving delay/reorder/duplication in place (they threaten no liveness).
func (d *Director) HealAll() {
	for _, g := range d.Groups {
		for _, p := range g.Paths {
			p.SetDown(false)
			p.Update(func(c *PathConfig) {
				c.LossRate = 0
				c.GE = nil
			})
		}
	}
	d.Log.Emit(Event{Ev: "heal-all"})
}

// mutate applies one random perturbation to one random group.
func (d *Director) mutate() {
	if len(d.Groups) == 0 {
		return
	}
	g := d.Groups[d.rng.Intn(len(d.Groups))]
	verb := d.rng.Float64()
	switch {
	case verb < 0.15: // partition: kill the whole group
		if g.Protected {
			return
		}
		for _, p := range g.Paths {
			p.SetDown(true)
		}
		d.Log.Emit(Event{Ev: "kill", Path: g.Name})
	case verb < 0.40: // heal (over-weighted: kills must not accumulate)
		for _, p := range g.Paths {
			p.SetDown(false)
		}
		d.Log.Emit(Event{Ev: "heal", Path: g.Name})
	case verb < 0.55: // loss step, bursty or i.i.d.
		loss := d.rng.Float64() * 0.5
		if g.Protected && loss > 0.2 {
			loss = 0.2
		}
		burst := d.rng.Float64() < 0.5
		for _, p := range g.Paths {
			p.Update(func(c *PathConfig) {
				if burst && !g.Protected {
					c.GE = DefaultGE()
					c.LossRate = 0
				} else {
					c.GE = nil
					c.LossRate = loss
				}
			})
		}
		d.Log.Emit(Event{Ev: "loss", Path: g.Name, Detail: fmt.Sprintf("rate=%.2f burst=%v", loss, burst)})
	case verb < 0.70: // delay step (handover to a farther basestation)
		delay := time.Duration(d.rng.Intn(30)) * time.Millisecond
		for _, p := range g.Paths {
			p.Update(func(c *PathConfig) {
				c.Delay = delay
				c.Jitter = delay / 4
			})
		}
		d.Log.Emit(Event{Ev: "delay", Path: g.Name, Detail: delay.String()})
	case verb < 0.82: // reordering window
		for _, p := range g.Paths {
			p.Update(func(c *PathConfig) {
				c.ReorderRate = d.rng.Float64() * 0.3
				c.ReorderDelay = time.Duration(1+d.rng.Intn(20)) * time.Millisecond
			})
		}
		d.Log.Emit(Event{Ev: "reorder", Path: g.Name})
	case verb < 0.92: // duplication
		for _, p := range g.Paths {
			p.Update(func(c *PathConfig) { c.DupRate = d.rng.Float64() * 0.2 })
		}
		d.Log.Emit(Event{Ev: "duplicate", Path: g.Name})
	default: // bit corruption (the wire checksum turns this into drops)
		rate := d.rng.Float64() * 0.3
		if g.Protected && rate > 0.05 {
			rate = 0.05
		}
		for _, p := range g.Paths {
			p.Update(func(c *PathConfig) { c.CorruptRate = rate })
		}
		d.Log.Emit(Event{Ev: "corrupt", Path: g.Name, Detail: fmt.Sprintf("rate=%.2f", rate)})
	}
}
