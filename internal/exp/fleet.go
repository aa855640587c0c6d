package exp

import (
	"fmt"
	"strings"

	"mptcp/internal/cc"
	"mptcp/internal/metrics"
	"mptcp/internal/netsim"
	"mptcp/internal/scenario"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/transport"
)

func init() {
	register(&Experiment{
		ID:  "fleet",
		Ref: "scaled-up §3 server workload",
		Desc: "Fleet-scale flow-completion times: tens of thousands of short MPTCP connections under Poisson " +
			"arrivals × Pareto sizes across 32 partitioned simulation domains; FCT p50/p95/p99 per cc × scheduler cell.",
		Run: runFleet,
	})
}

// Fleet shape. Each cell is one (algorithm × scheduler) combination
// simulating fleetDomains independent connection groups — dual-homed
// clients behind their own pair of asymmetric access links — coupled in
// a ring by background transit bursts that cross group boundaries over
// sim.Sharded pipes. At full scale each cell sees fleetRate × fleetDur
// × fleetDomains ≈ 11,500 Poisson arrivals with Pareto(1.5) sizes of
// mean fleetMeanPkts packets: the §3 server workload scaled up three
// orders of magnitude, which is exactly the population FCT distributions
// need (arXiv:1112.1932 and arXiv:2309.09372 both evaluate over large
// flow ensembles).
const (
	fleetDomains  = 32
	fleetDur      = 30 * sim.Second
	fleetRate     = 12.0 // arrivals per second per domain
	fleetMeanPkts = 50.0
	fleetRecvBuf  = 64
	// fleetPipeLatency couples the groups; it is also the engine's
	// barrier epoch, so 600 epochs cover a full-scale run.
	fleetPipeLatency = 50 * sim.Millisecond
	// fleetTransitEvery paces each group's background bursts into the
	// next group.
	fleetTransitEvery = 20 * sim.Millisecond
)

// fleetScheds are the scheduler columns: the historical striping and
// the deployment default, enough to show FCT tails move with
// scheduling policy without squaring the grid.
func fleetScheds() []string { return []string{"firstfit", "minrtt"} }

// fleetOut is one cell's aggregate, already merged across domains.
type fleetOut struct {
	fct        *metrics.Summary // completion times, seconds
	arrivals   int64
	completed  int64
	incomplete int64 // flows still in flight at the horizon
	pkts       int64 // data packets delivered by completed flows
	partial    int64 // data packets delivered by incomplete flows
	transit    int64 // cross-domain transit bursts delivered
	reuses     int64 // pool recycles (diagnostics)
}

// fleetGroup is one partition domain: its own simulator, network,
// access links, connection pool and FCT summary. It implements
// sim.Handler to absorb transit bursts arriving over the ring pipe.
type fleetGroup struct {
	s    *sim.Simulator
	n    *netsim.Net
	d1   *topo.Duplex
	d2   *topo.Duplex
	pool *transport.ConnPool
	env  *scenario.Env

	bgRoute  *netsim.Route // transit-burst packets into the d1 access queue
	out      *sim.Pipe     // to the next group in the ring
	ringDest *fleetGroup   // receiver of out (the next group)
	tick     *sim.Timer

	fct       *metrics.Summary
	completed int64
	pkts      int64
	transit   int64
}

// fleetSink drains background packets (transit bursts) at the far end
// of an access link.
type fleetSink struct{ n *netsim.Net }

func (k *fleetSink) Receive(p *netsim.Packet) { k.n.FreePacket(p) }

// OnEvent absorbs one transit burst from the previous group in the
// ring: arg packets are injected into this group's primary access
// queue, so cross-domain traffic genuinely perturbs the local flows and
// the barrier merge order is part of what fleet.jsonl pins.
func (g *fleetGroup) OnEvent(arg any) {
	k := arg.(int)
	g.transit++
	for i := 0; i < k; i++ {
		p := g.n.AllocPacket()
		p.Size = netsim.DataPacketSize
		g.n.Send(g.bgRoute, p)
	}
}

// sendTransit emits this group's periodic burst into the ring and
// rearms. Burst sizes draw from the group's own domain rng.
func (g *fleetGroup) sendTransit(end sim.Time) {
	g.out.Send(g.ringDest, 1+g.s.Rand().Intn(8))
	if next := g.s.Now() + fleetTransitEvery; next < end {
		g.tick.ResetAt(next)
	}
}

// complete folds a finished flow into the group's aggregates and
// recycles its connection (Config.OnComplete).
func (g *fleetGroup) complete(c *transport.Conn) {
	g.fct.Add((c.CompletedAt() - c.StartedAt()).Seconds())
	g.completed++
	g.pkts += c.Delivered()
	g.pool.Put(c)
}

func runFleet(cfg Config) *Result {
	g := grid{
		id:    "fleet",
		title: "Fleet: flow-completion time seconds p50/p95/p99 (completed flows) per algorithm × scheduler",
		axes:  []axis{{"algorithm", cc.Names()}, {"scheduler", fleetScheds()}},
		cols:  []string{"p50", "p95", "p99", "mean", "completed", "arrivals"},
		dims:  Record{Topology: "fleet32", Scenario: "poisson-pareto-churn", RecvBuf: fleetRecvBuf},
	}
	res := runGrid(cfg, g, func(c *gridCell) fleetOut {
		return runFleetCell(c.Config, c.vals[0], c.vals[1])
	}, func(res *Result, c *gridCell, out fleetOut) []string {
		key := strings.ToLower(c.vals[0]) + "_" + c.vals[1]
		res.Metrics[key+"_fct_p50_s"] = out.fct.P50()
		res.Metrics[key+"_fct_p99_s"] = out.fct.P99()
		res.Metrics[key+"_completed"] = float64(out.completed)
		// goodput counts completed and in-flight deliveries; the fct_*
		// fields are omitted (not zero) when nothing completed, matching
		// Summary's NaN-when-empty contract.
		mets := map[string]float64{
			"completed":    float64(out.completed),
			"incomplete":   float64(out.incomplete),
			"arrivals":     float64(out.arrivals),
			"goodput_mbps": metrics.ThroughputMbps(out.pkts+out.partial, c.dur(fleetDur)),
			"transit":      float64(out.transit),
			"pool_reuses":  float64(out.reuses),
		}
		if out.fct.N() > 0 {
			mets["fct_p50_s"] = out.fct.P50()
			mets["fct_p95_s"] = out.fct.P95()
			mets["fct_p99_s"] = out.fct.P99()
			mets["fct_mean_s"] = out.fct.Mean()
			mets["fct_max_s"] = out.fct.Max()
		}
		res.Records = append(res.Records, g.record(c, mets))
		return []string{
			f2(out.fct.P50()), f2(out.fct.P95()), f2(out.fct.P99()), f2(out.fct.Mean()),
			f0(float64(out.completed)), f0(float64(out.arrivals)),
		}
	})
	res.note("%d connection groups per cell, Poisson %.0f arrivals/s/group × Pareto(1.5) sizes of mean %.0f pkts, shared recvbuf %d pkts; groups coupled by ring transit bursts over sharded pipes",
		fleetDomains, fleetRate, fleetMeanPkts, fleetRecvBuf)
	return res
}

// runFleetCell simulates one (algorithm × scheduler) cell on a sharded
// engine: fleetDomains connection groups on their own heaps, run one
// after another between fleetPipeLatency barriers. Memory stays bounded by
// streaming aggregation — completion times fold straight into each
// group's metrics.Summary, and connection state recycles through a
// per-group ConnPool — so the cell never retains per-flow samples.
func runFleetCell(cell Config, algName, schedSpec string) fleetOut {
	end := cell.dur(fleetDur)
	sh := sim.NewSharded(cell.Seed, fleetDomains)

	groups := make([]*fleetGroup, fleetDomains)
	for i := range groups {
		groups[i] = buildFleetGroup(sh.Domain(i), i, end, algName, schedSpec)
	}
	// Ring pipes: group i's transit bursts land in group (i+1) % N.
	for i, g := range groups {
		g.out = sh.NewPipe(i, (i+1)%fleetDomains, fleetPipeLatency)
		g.ringDest = groups[(i+1)%fleetDomains]
	}
	// Start the transit tickers (the churn directives armed themselves
	// at install time).
	for _, g := range groups {
		g.tick.ResetAt(fleetTransitEvery)
	}

	sh.Run(end)

	// Deterministic merge in domain order. Flows still in flight at the
	// horizon have delivered packets too — OnComplete never fired for
	// them, so they are picked up here from the pool's live set; without
	// this the cell's goodput undercounts everything in flight.
	out := fleetOut{fct: metrics.NewSummary()}
	for _, g := range groups {
		out.fct.Merge(g.fct)
		out.arrivals += g.env.ChurnArrivals
		out.completed += g.completed
		out.incomplete += g.pool.LiveCount()
		out.pkts += g.pkts
		out.partial += g.pool.LiveDelivered()
		out.transit += g.transit
		out.reuses += g.pool.Reuses
	}
	return out
}

// buildFleetGroup constructs one connection group on domain simulator
// s: two asymmetric access duplexes (a fast short path and a slower
// long one, the §5 WiFi/3G shape), a FlowChurn scenario spawning
// pooled two-path connections, and the transit-burst plumbing.
func buildFleetGroup(s *sim.Simulator, id int, end sim.Time, algName, schedSpec string) *fleetGroup {
	n := netsim.NewNet(s)
	g := &fleetGroup{
		s: s, n: n,
		d1:   topo.NewDuplex(fmt.Sprintf("g%d/acc1", id), 16, 10*sim.Millisecond, topo.BDPPackets(16, 20*sim.Millisecond)),
		d2:   topo.NewDuplex(fmt.Sprintf("g%d/acc2", id), 8, 25*sim.Millisecond, topo.BDPPackets(8, 50*sim.Millisecond)),
		pool: transport.NewConnPool(n),
		fct:  metrics.NewSummary(),
	}
	g.bgRoute = netsim.NewRoute(&fleetSink{n: n}, g.d1.AB)
	g.tick = s.NewTimer(func() { g.sendTransit(end) })

	paths := []transport.Path{topo.PathThrough(g.d1), topo.PathThrough(g.d2)}
	g.env = &scenario.Env{Sim: s, Net: n, Links: []*topo.Duplex{g.d1, g.d2}}
	complete := g.complete // bound once: every arrival shares it
	g.env.Spawn = func(pkts int64) {
		g.pool.Get(transport.Config{
			Alg:         newAlg(algName),
			Sched:       sched.MustNew(schedSpec),
			Paths:       paths,
			DataPackets: pkts,
			RecvBuf:     fleetRecvBuf,
			OnComplete:  complete,
		}).Start()
	}
	scenario.Scenario{
		Name: "fleet-churn",
		Directives: []scenario.Directive{
			scenario.FlowChurn{Start: 0, End: end, Rate: fleetRate, MeanPkts: fleetMeanPkts},
		},
	}.MustInstall(g.env)
	return g
}
