package scenario

import (
	"fmt"

	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/traffic"
)

// LinkDown takes link Link (both directions) down at At: arrivals are
// dropped and packets stranded in flight are lost, the §5 radio outage.
type LinkDown struct {
	Link int
	At   sim.Time
}

func (d LinkDown) install(env *Env) error {
	l, err := env.link(d.Link)
	if err != nil {
		return err
	}
	env.Sim.At(d.At, func() { l.SetDown(true) })
	return nil
}

// LinkUp restores link Link at At.
type LinkUp struct {
	Link int
	At   sim.Time
}

func (d LinkUp) install(env *Env) error {
	l, err := env.link(d.Link)
	if err != nil {
		return err
	}
	env.Sim.At(d.At, func() { l.SetDown(false) })
	return nil
}

// DelayStep rescales link Link's propagation delay (both directions) at
// At: the new delay is Factor times the delay the link had when the
// scenario was installed. Packets already accepted keep their old delay
// (netsim.Link.SetDelay). Factor form keeps one script meaningful
// across topologies with very different RTTs.
type DelayStep struct {
	Link   int
	At     sim.Time
	Factor float64
}

func (d DelayStep) install(env *Env) error {
	l, err := env.link(d.Link)
	if err != nil {
		return err
	}
	if d.Factor <= 0 {
		return fmt.Errorf("delay factor %v must be positive", d.Factor)
	}
	base := l.AB.PropDelay // install-time delay; Duplex keeps both directions equal
	env.Sim.At(d.At, func() { l.SetDelay(sim.Time(float64(base) * d.Factor)) })
	return nil
}

// LossStep sets link Link's i.i.d. loss rate (both directions) to Loss
// at At — radio conditions changing mid-walk (§5 Fig. 17).
type LossStep struct {
	Link int
	At   sim.Time
	Loss float64
}

func (d LossStep) install(env *Env) error {
	l, err := env.link(d.Link)
	if err != nil {
		return err
	}
	if d.Loss < 0 || d.Loss > 1 {
		return fmt.Errorf("loss rate %v outside [0,1]", d.Loss)
	}
	env.Sim.At(d.At, func() { l.SetLossRate(d.Loss) })
	return nil
}

// RateRamp reschedules link Link's forward (data-direction) line rate
// through Steps evenly spaced set-points between Start and End,
// interpolating linearly From→To. By default From/To are factors of the
// link's forward rate at install time; with Abs they are absolute Mb/s
// (exact values, used where an experiment reproduces a measured rate).
// Steps <= 1 degenerates to a single set to To at Start (From unused).
// The reverse (ACK) direction is left alone, matching how the paper's
// experiments vary data capacity.
type RateRamp struct {
	Link       int
	Start, End sim.Time
	From, To   float64
	Steps      int
	Abs        bool
}

func (d RateRamp) install(env *Env) error {
	l, err := env.link(d.Link)
	if err != nil {
		return err
	}
	rate := func(f float64) float64 {
		if d.Abs {
			return f
		}
		return l.AB.RateBps / 1e6 * f
	}
	if d.Steps <= 1 {
		target := rate(d.To)
		if target <= 0 {
			return fmt.Errorf("rate %v must be positive", target)
		}
		env.Sim.At(d.Start, func() { l.AB.SetRate(target) })
		return nil
	}
	if d.End <= d.Start {
		return fmt.Errorf("ramp needs End > Start (got %v..%v)", d.Start, d.End)
	}
	if rate(d.From) <= 0 || rate(d.To) <= 0 {
		return fmt.Errorf("ramp endpoints must give positive rates")
	}
	r := &rampRun{link: l, d: d, base: rate(1)}
	if d.Abs {
		r.base = 1 // step() multiplies base by the interpolated value
	}
	r.tm = env.Sim.NewTimer(r.step)
	r.tm.ResetAt(d.Start)
	return nil
}

// rampRun steps one RateRamp through its set-points on a single
// rearm-in-place timer, left idle after the last step.
type rampRun struct {
	link *topo.Duplex
	d    RateRamp
	base float64 // install-time forward rate in Mb/s (1 when Abs)
	k    int     // next step index, 0..Steps-1
	tm   *sim.Timer
}

func (r *rampRun) step() {
	n := r.d.Steps - 1
	f := r.d.From + (r.d.To-r.d.From)*float64(r.k)/float64(n)
	r.link.AB.SetRate(r.base * f)
	r.k++
	if r.k <= n {
		r.tm.ResetAt(r.d.Start + sim.Time(int64(r.d.End-r.d.Start)*int64(r.k)/int64(n)))
	}
}

// PeriodicFlap takes link Link down for Down at the start of every
// Period, from Start until End — the stairwell walked past repeatedly,
// or an interface that keeps dissociating. The link is always up after
// the final flap; cycles that would not fit a full Down before End are
// not started. Runs on one rearm-in-place timer.
type PeriodicFlap struct {
	Link       int
	Start, End sim.Time
	Period     sim.Time
	Down       sim.Time
}

func (d PeriodicFlap) install(env *Env) error {
	l, err := env.link(d.Link)
	if err != nil {
		return err
	}
	if d.Period <= 0 || d.Down <= 0 || d.Down >= d.Period {
		return fmt.Errorf("flap needs 0 < Down < Period (got Down %v, Period %v)", d.Down, d.Period)
	}
	if d.Start+d.Down > d.End {
		return fmt.Errorf("no flap fits between Start %v and End %v", d.Start, d.End)
	}
	f := &flapRun{d: d, link: l, cycle: d.Start}
	f.tm = env.Sim.NewTimer(f.step)
	f.tm.ResetAt(d.Start)
	return nil
}

type flapRun struct {
	d     PeriodicFlap
	link  *topo.Duplex
	cycle sim.Time // start of the current flap cycle
	down  bool
	tm    *sim.Timer
}

func (f *flapRun) step() {
	if !f.down {
		f.link.SetDown(true)
		f.down = true
		f.tm.ResetAt(f.cycle + f.d.Down)
		return
	}
	f.link.SetDown(false)
	f.down = false
	f.cycle += f.d.Period
	if f.cycle+f.d.Down <= f.d.End {
		f.tm.ResetAt(f.cycle)
	}
}

// BackgroundCBR attaches a bursty on/off constant-bit-rate interferer
// (traffic.OnOffCBR) to link Link's forward direction between Start and
// End. The burst rate is RateFactor times the link's
// forward line rate at install, so the same script saturates a 100 Mb/s
// access link and a 2 Mb/s radio alike; on/off periods are exponential
// with the given means.
type BackgroundCBR struct {
	Link            int
	Start, End      sim.Time
	RateFactor      float64
	MeanOn, MeanOff sim.Time
}

func (d BackgroundCBR) install(env *Env) error {
	l, err := env.link(d.Link)
	if err != nil {
		return err
	}
	if env.Net == nil {
		return fmt.Errorf("BackgroundCBR needs Env.Net")
	}
	if d.RateFactor <= 0 || d.MeanOn <= 0 || d.MeanOff <= 0 {
		return fmt.Errorf("CBR needs positive RateFactor and on/off means")
	}
	if d.End <= d.Start {
		return fmt.Errorf("CBR needs End > Start (got %v..%v)", d.Start, d.End)
	}
	cbr := traffic.NewOnOffCBR(env.Net, l.AB.RateBps/1e6*d.RateFactor, d.MeanOn, d.MeanOff, l.AB)
	env.Sim.At(d.Start, cbr.Start)
	env.Sim.At(d.End, cbr.Stop)
	return nil
}

// FlowChurn spawns short-lived flows via Env.Spawn as a Poisson process
// of Rate arrivals per second between Start and End, with
// Pareto(1.5)-distributed sizes (the paper's file sizes) of mean
// MeanPkts packets — the §3 flash-crowd/server workload as a reusable
// script. Arrival gaps and sizes draw from env.Sim.Rand(); arrivals are
// counted in env.ChurnArrivals. Runs on one rearm-in-place timer,
// last armed before End.
type FlowChurn struct {
	Start, End sim.Time
	Rate       float64 // arrivals per second
	MeanPkts   float64 // mean flow size in packets
}

func (d FlowChurn) install(env *Env) error {
	if env.Spawn == nil {
		return fmt.Errorf("FlowChurn needs Env.Spawn")
	}
	if d.Rate <= 0 || d.MeanPkts < 1 {
		return fmt.Errorf("churn needs positive Rate and MeanPkts >= 1")
	}
	if d.End <= d.Start {
		return fmt.Errorf("churn needs End > Start (got %v..%v)", d.Start, d.End)
	}
	c := &churnRun{env: env, d: d, sizes: traffic.NewParetoMean(1.5, d.MeanPkts)}
	c.tm = env.Sim.NewTimer(c.step)
	c.tm.ResetAt(d.Start)
	return nil
}

type churnRun struct {
	env   *Env
	d     FlowChurn
	sizes traffic.Pareto
	tm    *sim.Timer
}

// step fires once at Start (beginning the process without an arrival)
// and then once per arrival.
func (c *churnRun) step() {
	now := c.env.Sim.Now()
	if now > c.d.Start {
		c.env.ChurnArrivals++
		pkts := int64(c.sizes.Sample(c.env.Sim.Rand()))
		if pkts < 1 {
			pkts = 1
		}
		c.env.Spawn(pkts)
	}
	next := now + traffic.PoissonGap(c.env.Sim.Rand(), c.d.Rate)
	if next <= c.d.End {
		c.tm.ResetAt(next)
	}
}
