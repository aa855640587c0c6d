// Package metrics provides the measurement utilities the experiments in
// internal/exp build their tables and figures from:
//
//   - Series, a sampled time series with a Rate derivative
//     (per-interval deltas);
//   - Sampler, which probes named quantities (cwnd, delivered packets,
//     link stats) on a fixed simulated-time tick, driving one
//     rearm-in-place sim.Timer so sampling stays off the allocation
//     hot path;
//   - conversions (ThroughputMbps, PktPerSec) pinned to the 1500-byte
//     data-packet size the paper's wired figures use;
//   - order statistics (Rank, Percentile) for the §4 distribution
//     plots, plus Sum/Mean and Jain's fairness index (JainIndex);
//   - Summary and P2Quantile, streaming moments and quantiles that
//     merge across shards.
//
// Everything is computation over values the caller snapshots; nothing
// here touches simulation state or global clocks, so metrics code is
// safe in the parallel runner's concurrently executing cells.
package metrics

import (
	"math"
	"sort"

	"mptcp/internal/netsim"
	"mptcp/internal/sim"
)

// Series is a sampled time series.
type Series struct {
	Name  string
	Times []sim.Time
	Vals  []float64
}

// Add appends one sample.
func (s *Series) Add(t sim.Time, v float64) {
	s.Times = append(s.Times, t)
	s.Vals = append(s.Vals, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Vals) }

// Sampler periodically evaluates probes and records them into series.
type Sampler struct {
	s        *sim.Simulator
	interval sim.Time
	probes   []func() (string, float64)
	series   map[string]*Series
	order    []string
	timer    *sim.Timer
}

// NewSampler creates a sampler that fires every interval once Start is
// called.
func NewSampler(s *sim.Simulator, interval sim.Time) *Sampler {
	sa := &Sampler{s: s, interval: interval, series: make(map[string]*Series)}
	// One owned timer rearmed per tick: the sampler creates no timer
	// garbage over a run, however long.
	sa.timer = s.NewTimer(sa.tick)
	return sa
}

// Probe registers a named probe function evaluated at every tick.
func (sa *Sampler) Probe(name string, fn func() float64) {
	sa.probes = append(sa.probes, func() (string, float64) { return name, fn() })
	sa.series[name] = &Series{Name: name}
	sa.order = append(sa.order, name)
}

// Start schedules the first tick.
func (sa *Sampler) Start() {
	sa.timer.Reset(sa.interval)
}

func (sa *Sampler) tick() {
	now := sa.s.Now()
	for _, p := range sa.probes {
		name, v := p()
		sa.series[name].Add(now, v)
	}
	sa.timer.Reset(sa.interval)
}

// Series returns the series recorded under name, or nil.
func (sa *Sampler) Series(name string) *Series { return sa.series[name] }

// Names returns the probe names in registration order.
func (sa *Sampler) Names() []string { return sa.order }

// Rate derives a rate (units/second) series from successive samples of
// a cumulative counter series.
func (s *Series) Rate() *Series {
	out := &Series{Name: s.Name + "/rate"}
	for i := 1; i < len(s.Vals); i++ {
		dt := (s.Times[i] - s.Times[i-1]).Seconds()
		if dt <= 0 {
			continue
		}
		out.Add(s.Times[i], (s.Vals[i]-s.Vals[i-1])/dt)
	}
	return out
}

// ThroughputMbps converts a count of data packets transferred during dur
// into megabits per second, using the standard 1500-byte packet.
func ThroughputMbps(pkts int64, dur sim.Time) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(pkts) * netsim.DataPacketSize * 8 / dur.Seconds() / 1e6
}

// PktPerSec converts a packet count over dur to packets per second.
func PktPerSec(pkts int64, dur sim.Time) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(pkts) / dur.Seconds()
}

// Rank returns xs sorted descending — the "rank of flow/link"
// distribution plots of Fig. 13.
func Rank(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// Percentile returns the p-th percentile (0..100) by nearest-rank on a
// sorted copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// JainIndex returns Jain's fairness index (Σx)²/(n·Σx²) of the rates xs,
// used in §3's torus experiment.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
