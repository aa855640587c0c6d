package harness

import (
	"fmt"
	"math/rand"
	"time"

	"mptcp/internal/chaos"
	"mptcp/internal/scenario"
	"mptcp/internal/sim"
)

// direct schedules the director's seeded random walk on clock: every
// tick before churn it perturbs one random link — kill, heal, loss step,
// delay step, reorder, duplication, corruption — and at churn it heals
// every link, so in-flight transfers can finish. Protected links are
// never killed, never get burst loss, and keep loss ≤ 0.2 and corruption
// ≤ 0.05, so a run with one protected link per connection keeps a live
// path and therefore completes. Stopping the clock stops the walk.
func direct(clock scenario.Clock, links []Link, tick, churn time.Duration, seed int64, log *chaos.Log) {
	rng := rand.New(rand.NewSource(seed))
	healed := false // a step whose timer lost the race with heal-all does nothing
	var step func()
	step = func() {
		if healed {
			return
		}
		mutate(links[rng.Intn(len(links))], rng)
		if next := clock.Now() + sim.Time(tick); next < sim.Time(churn) {
			clock.At(next, step)
		}
	}
	if tick < churn {
		clock.At(sim.Time(tick), step)
	}
	clock.At(sim.Time(churn), func() {
		healed = true
		// Loss goes, a base model's too; delay, jitter, reordering,
		// duplication and corruption stay: they threaten no liveness.
		for _, l := range links {
			for _, p := range l.Paths {
				p.SetDown(false)
				p.Update(func(c *chaos.PathConfig) {
					c.LossRate = 0
					c.GE = nil
				})
			}
		}
		log.Emit(chaos.Event{Ev: "heal-all"})
	})
}

// mutate applies one random perturbation to l, logged under its name.
func mutate(l Link, rng *rand.Rand) {
	all := len(l.Paths)
	verb := rng.Float64()
	switch {
	case verb < 0.15: // partition: kill the whole link
		if !l.Protected {
			l.SetDown(true)
		}
	case verb < 0.40: // heal (over-weighted: kills must not accumulate)
		l.SetDown(false)
	case verb < 0.55: // loss step, bursty or i.i.d.
		loss := rng.Float64() * 0.5
		if l.Protected && loss > 0.2 {
			loss = 0.2
		}
		burst := rng.Float64() < 0.5
		l.set("loss", fmt.Sprintf("rate=%.2f burst=%v", loss, burst), all, func(c *chaos.PathConfig) {
			if burst && !l.Protected {
				c.GE = chaos.DefaultGE()
				c.LossRate = 0
			} else {
				c.GE = nil
				c.LossRate = loss
			}
		})
	case verb < 0.70: // delay step (handover to a farther basestation)
		delay := time.Duration(rng.Intn(30)) * time.Millisecond
		l.set("delay", delay, all, func(c *chaos.PathConfig) {
			c.Delay = delay
			c.Jitter = delay / 4
		})
	case verb < 0.82: // reordering window, drawn per Path
		l.set("reorder", "", all, func(c *chaos.PathConfig) {
			c.ReorderRate = rng.Float64() * 0.3
			c.ReorderDelay = time.Duration(1+rng.Intn(20)) * time.Millisecond
		})
	case verb < 0.92: // duplication, drawn per Path
		l.set("duplicate", "", all, func(c *chaos.PathConfig) { c.DupRate = rng.Float64() * 0.2 })
	default: // bit corruption (the wire checksum turns this into drops)
		rate := rng.Float64() * 0.3
		if l.Protected && rate > 0.05 {
			rate = 0.05
		}
		l.set("corrupt", fmt.Sprintf("rate=%.2f", rate), all, func(c *chaos.PathConfig) { c.CorruptRate = rate })
	}
}
