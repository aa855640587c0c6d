// Package traffic provides the workload generators used in the paper's
// evaluation. They are on/off constant-bit-rate interference (§3, Fig.
// 9), Poisson flow arrivals with Pareto-distributed sizes (§3's server
// experiment), and the data-centre traffic patterns TP1/TP2/TP3 of §4
// (permutation and sparse matrices over a host set).
//
// Generators draw all randomness from the rand.Rand the caller passes —
// in experiments, one derived from the cell seed — and drive
// transmission off rearm-in-place sim.Timers, so workloads are exactly
// as reproducible as the world that hosts them and safe to build inside
// the parallel runner's concurrent cells. This is the one sampler
// package: the scenario engine's BackgroundCBR directive wraps OnOffCBR,
// and its FlowChurn directive (which internal/workload's mice are) is
// its own arrival process drawing sizes from Pareto and gaps from
// PoissonGap.
package traffic

import (
	"math"
	"math/rand"

	"mptcp/internal/netsim"
	"mptcp/internal/sim"
)

// sink discards delivered CBR packets.
type sink struct{ net *netsim.Net }

func (s *sink) Receive(p *netsim.Packet) { s.net.FreePacket(p) }

// OnOffCBR is a bursty constant-bit-rate source: it transmits at RateMbps
// during on-periods and is silent during off-periods, both drawn from
// exponential distributions. §3 uses mean on 10 ms at 100 Mb/s and mean
// off 100 ms to stress multipath responsiveness.
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
// Pending cycle events fire as no-ops. Used by scenario directives that
// bound background interference to a time window.
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

// PoissonArrivals invokes spawn at exponentially distributed intervals
// with the given rate (arrivals per second), which must be positive. The
// rate may be changed at any time (§3 alternates 10/s and 60/s).
type PoissonArrivals struct {
	Net   *netsim.Net
	Rate  float64
	Spawn func()
}

// Start schedules the first arrival.
func (pa *PoissonArrivals) Start() { pa.next() }

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

func (pa *PoissonArrivals) next() {
	pa.Net.Sim.After(PoissonGap(pa.Net.Sim.Rand(), pa.Rate), func() {
		pa.Spawn()
		pa.next()
	})
}

// Permutation returns a random permutation traffic pattern (TP1): dst[i]
// is the destination of host i, with dst[i] != i and each host receiving
// exactly one flow. It draws a uniform permutation and swaps each fixed
// point once with its cyclic successor, which never creates a new one.
func Permutation(rng *rand.Rand, n int) []int {
	dst := rng.Perm(n)
	for i := 0; i < n; i++ {
		if dst[i] == i {
			j := (i + 1) % n
			dst[i], dst[j] = dst[j], dst[i]
		}
	}
	return dst
}

// SparseFlows returns TP3: a fraction frac of hosts each open one flow to
// a uniformly random distinct destination. Returns (src, dst) pairs.
func SparseFlows(rng *rand.Rand, n int, frac float64) (src, dst []int) {
	hosts := rng.Perm(n)
	k := int(float64(n) * frac)
	for i := 0; i < k; i++ {
		s := hosts[i]
		d := rng.Intn(n)
		for d == s {
			d = rng.Intn(n)
		}
		src = append(src, s)
		dst = append(dst, d)
	}
	return src, dst
}

// OneToMany returns TP2 for hosts without structural neighbours: each
// host opens fanout flows to distinct random destinations.
func OneToMany(rng *rand.Rand, n, fanout int) (src, dst []int) {
	for s := 0; s < n; s++ {
		seen := map[int]bool{s: true}
		for len(seen) < fanout+1 {
			d := rng.Intn(n)
			if seen[d] {
				continue
			}
			seen[d] = true
			src = append(src, s)
			dst = append(dst, d)
		}
	}
	return src, dst
}
