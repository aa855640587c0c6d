package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"mptcp/internal/netsim"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
)

// LinkDown takes link Link (both directions) down at At: arrivals are
// dropped and packets stranded in flight are lost, the §5 radio outage.
type LinkDown struct {
	Link int
	At   sim.Time
}

func (d LinkDown) install(env *Env) error {
	return at(env, d.Link, d.At, func(l Link) { l.SetDown(true) })
}

// LinkUp restores link Link at At.
type LinkUp struct {
	Link int
	At   sim.Time
}

func (d LinkUp) install(env *Env) error {
	return at(env, d.Link, d.At, func(l Link) { l.SetDown(false) })
}

// at schedules f on env.Links[link] at t.
func at(env *Env, link int, t sim.Time, f func(Link)) error {
	l, err := env.link(link)
	if err != nil {
		return err
	}
	env.Clock.At(t, func() { f(l) })
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
	base := l.Delay() // install-time delay
	env.Clock.At(d.At, func() { l.SetDelay(sim.Time(float64(base) * d.Factor)) })
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
	if d.Loss < 0 || d.Loss > 1 {
		return fmt.Errorf("loss rate %v outside [0,1]", d.Loss)
	}
	return at(env, d.Link, d.At, func(l Link) { l.SetLossRate(d.Loss) })
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
	base := 1.0 // the set rate is base × the interpolated value
	if !d.Abs {
		if base = l.Rate(); base <= 0 {
			return fmt.Errorf("link %d has no rate to scale (rate %v Mb/s): a relative ramp needs a rate-limited link", d.Link, base)
		}
	}
	if d.Steps <= 1 {
		target := base * d.To
		if target <= 0 {
			return fmt.Errorf("rate %v must be positive", target)
		}
		env.Clock.At(d.Start, func() { l.SetRate(target) })
		return nil
	}
	if d.End <= d.Start {
		return fmt.Errorf("ramp needs End > Start (got %v..%v)", d.Start, d.End)
	}
	if base*d.From <= 0 || base*d.To <= 0 {
		return fmt.Errorf("ramp endpoints must give positive rates")
	}
	n, k := d.Steps-1, 0
	var step func() // set-point k, then schedule k+1; bound once
	step = func() {
		l.SetRate(base * (d.From + (d.To-d.From)*float64(k)/float64(n)))
		if k++; k <= n {
			env.Clock.At(d.Start+sim.Time(int64(d.End-d.Start)*int64(k)/int64(n)), step)
		}
	}
	env.Clock.At(d.Start, step)
	return nil
}

// PeriodicFlap takes link Link down for Down at the start of every
// Period, from Start until End — the stairwell walked past repeatedly,
// or an interface that keeps dissociating. The link is always up after
// the final flap; cycles that would not fit a full Down before End are
// not started. Keeps one event pending at a time.
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
	cycle, down := d.Start, false // the current cycle's start; link state
	var step func()               // bound once
	step = func() {
		down = !down
		l.SetDown(down)
		switch {
		case down:
			env.Clock.At(cycle+d.Down, step)
		case cycle+d.Period+d.Down <= d.End:
			cycle += d.Period
			env.Clock.At(cycle, step)
		}
	}
	env.Clock.At(d.Start, step)
	return nil
}

// BackgroundCBR attaches a bursty on/off constant-bit-rate interferer
// (OnOffCBR) to link Link's forward direction between Start and
// End. The burst rate is RateFactor times the link's
// forward line rate at install, so the same script saturates a 100 Mb/s
// access link and a 2 Mb/s radio alike; on/off periods are exponential
// with the given means. It needs a simulated link: Env.Net and a
// *topo.Duplex.
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
	dl, ok := l.(*topo.Duplex)
	if env.Net == nil || !ok {
		return fmt.Errorf("BackgroundCBR needs Env.Net and a simulated link")
	}
	if d.RateFactor <= 0 || d.MeanOn <= 0 || d.MeanOff <= 0 {
		return fmt.Errorf("CBR needs positive RateFactor and on/off means")
	}
	if d.End <= d.Start {
		return fmt.Errorf("CBR needs End > Start (got %v..%v)", d.Start, d.End)
	}
	cbr := NewOnOffCBR(env.Net, dl.Rate()*d.RateFactor, d.MeanOn, d.MeanOff, dl.AB)
	env.Clock.At(d.Start, cbr.Start)
	env.Clock.At(d.End, cbr.Stop)
	return nil
}

// FlowChurn spawns short-lived flows via Env.Spawn as a Poisson process
// of Rate arrivals per second between Start and End, with
// Pareto(1.5)-distributed sizes (the paper's file sizes) of mean
// MeanPkts packets — the §3 flash-crowd/server workload as a reusable
// script. Arrival gaps and sizes draw from env.Rand; arrivals are
// counted in env.ChurnArrivals. Keeps one event pending at a time, the
// last one before End.
type FlowChurn struct {
	Start, End sim.Time
	Rate       float64 // arrivals per second
	MeanPkts   float64 // mean flow size in packets
}

func (d FlowChurn) install(env *Env) error {
	if env.Spawn == nil || env.Rand == nil {
		return fmt.Errorf("FlowChurn needs Env.Spawn and Env.Rand")
	}
	if d.Rate <= 0 || d.MeanPkts < 1 {
		return fmt.Errorf("churn needs positive Rate and MeanPkts >= 1")
	}
	if d.End <= d.Start {
		return fmt.Errorf("churn needs End > Start (got %v..%v)", d.Start, d.End)
	}
	sizes := NewParetoMean(1.5, d.MeanPkts)
	var step func() // once at Start (no arrival), then once per arrival; bound once
	step = func() {
		now := env.Clock.Now()
		if now > d.Start {
			env.ChurnArrivals++
			pkts := int64(sizes.Sample(env.Rand))
			if pkts < 1 {
				pkts = 1
			}
			env.Spawn(pkts)
		}
		if t := now + PoissonGap(env.Rand, d.Rate); t <= d.End {
			env.Clock.At(t, step)
		}
	}
	env.Clock.At(d.Start, step)
	return nil
}

// The samplers behind BackgroundCBR and FlowChurn. They draw every
// random number from the simulated world's one seeded source and pace
// transmission off rearm-in-place sim.Timers, so they are exactly as
// reproducible as the world that hosts them.

// sink discards delivered CBR packets.
type sink struct{ net *netsim.Net }

func (s *sink) Receive(p *netsim.Packet) { s.net.FreePacket(p) }

// OnOffCBR is a bursty constant-bit-rate source: it transmits at RateMbps
// during on-periods and is silent during off-periods, both drawn from
// exponential distributions. §3 (Fig. 9) uses mean on 10 ms at 100 Mb/s
// and mean off 100 ms to stress multipath responsiveness.
type OnOffCBR struct {
	Net      *netsim.Net
	Route    *netsim.Route
	RateMbps float64
	MeanOn   sim.Time
	MeanOff  sim.Time

	on        bool
	stopped   bool
	PktsSent  int64
	sendTimer *sim.Timer
}

// NewOnOffCBR builds the source; links is the forward path. Call Start.
func NewOnOffCBR(nw *netsim.Net, rateMbps float64, meanOn, meanOff sim.Time, links ...*netsim.Link) *OnOffCBR {
	c := &OnOffCBR{
		Net:      nw,
		Route:    netsim.NewRoute(&sink{net: nw}, links...),
		RateMbps: rateMbps,
		MeanOn:   meanOn,
		MeanOff:  meanOff,
	}
	c.sendTimer = nw.Sim.NewTimer(c.sendNext)
	return c
}

// Start begins the on/off cycle (starting in an off-period so flows have
// a moment to establish).
func (c *OnOffCBR) Start() {
	c.Net.Sim.After(c.expDur(c.MeanOff), c.turnOn)
}

func (c *OnOffCBR) expDur(mean sim.Time) sim.Time {
	d := sim.Time(c.Net.Sim.Rand().ExpFloat64() * float64(mean))
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	return d
}

// Stop ends the on/off cycle permanently: no further packets are sent.
// Pending cycle events fire as no-ops.
func (c *OnOffCBR) Stop() {
	c.stopped = true
	c.on = false
	c.sendTimer.Stop()
}

func (c *OnOffCBR) turnOn() {
	if c.stopped {
		return
	}
	c.on = true
	c.sendNext()
	c.Net.Sim.After(c.expDur(c.MeanOn), c.turnOff)
}

func (c *OnOffCBR) turnOff() {
	if c.stopped {
		return
	}
	c.on = false
	c.sendTimer.Stop()
	c.Net.Sim.After(c.expDur(c.MeanOff), c.turnOn)
}

func (c *OnOffCBR) sendNext() {
	if !c.on {
		return
	}
	p := c.Net.AllocPacket()
	p.Size = netsim.DataPacketSize
	c.Net.Send(c.Route, p)
	c.PktsSent++
	gap := sim.Time(float64(netsim.DataPacketSize*8) / (c.RateMbps * 1e6) * float64(sim.Second))
	c.sendTimer.Reset(gap)
}

// Pareto samples a Pareto distribution with shape alpha and the given
// mean (alpha must exceed 1 for the mean to exist). The paper's server
// workload uses Pareto file sizes with mean 200 kB.
type Pareto struct {
	Alpha float64
	Xm    float64 // scale (minimum value)
}

// NewParetoMean constructs a Pareto with shape alpha and the target mean:
// mean = alpha·xm/(alpha−1).
func NewParetoMean(alpha, mean float64) Pareto {
	return Pareto{Alpha: alpha, Xm: mean * (alpha - 1) / alpha}
}

// Sample draws one value.
func (p Pareto) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// Mean returns the distribution mean.
func (p Pareto) Mean() float64 { return p.Alpha * p.Xm / (p.Alpha - 1) }

// PoissonGap draws the time to the next arrival of a Poisson process of
// rate arrivals per second, floored at one microsecond so that a process
// always advances the clock.
func PoissonGap(rng *rand.Rand, rate float64) sim.Time {
	gap := sim.Time(rng.ExpFloat64() / rate * float64(sim.Second))
	if gap < sim.Microsecond {
		gap = sim.Microsecond
	}
	return gap
}
