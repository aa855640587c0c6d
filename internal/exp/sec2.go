package exp

import (
	"mptcp/internal/metrics"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/transport"
)

func init() {
	register(&Experiment{
		ID:   "fig2-triangle",
		Ref:  "§2.2 Fig. 2",
		Desc: "Three 12 Mb/s links in a triangle, three two-path flows: coupling should prefer the one-hop paths (12 Mb/s each) where EWTCP gets ~8.5 Mb/s.",
		Run:  runFig2,
	})
	register(&Experiment{
		ID:   "fig3-mesh",
		Ref:  "§2.2 Fig. 3",
		Desc: "Four-link chain (5/12/10/3 Mb/s), three two-path flows: COUPLED/MPTCP balance congestion and equalise totals (~10 Mb/s each); EWTCP gives (11, 11, 8).",
		Run:  runFig3,
	})
	register(&Experiment{
		ID:   "sec23-wifi3g-model",
		Ref:  "§2.3 worked example",
		Desc: "Fixed loss rates: WiFi 4%/10 ms vs 3G 1%/100 ms. Single-path TCPs get ~707 and ~141 pkt/s; EWTCP ~424; COUPLED ~141; MPTCP should reach the best path's ~707.",
		Run:  runSec23,
	})
	register(&Experiment{
		ID:   "fig5-trap",
		Ref:  "§2.4 Fig. 5",
		Desc: "Two links, two TCPs each, one multipath flow. A top-link TCP leaves and later returns: COUPLED gets trapped on the top link; MPTCP re-balances.",
		Run:  runFig5,
	})
}

// flowsOut is one cell of a three-flow figure (Figs. 2, 3, 15): the
// flows' rates in Mb/s and the one further statistic its table shows.
type flowsOut struct {
	rates []float64
	stat  float64
}

func runFig2(cfg Config) *Result {
	g := grid{
		id:    "fig2-triangle",
		title: "Per-flow throughput (Mb/s); optimal = 12 (one-hop only), even split = 8",
		axes:  []axis{{"algorithm", paperAlgs}},
		cols:  []string{"flowA", "flowB", "flowC", "mean", "one-hop share"},
	}
	res := runGrid(cfg, g, func(c *gridCell) flowsOut {
		w := c.world()
		sc := triangleScene(w, mpAlg(c.vals[0]))
		rates := w.measure(sc.all, c.dur(60*sim.Second), c.dur(260*sim.Second))
		var oneHop, total int64
		for _, f := range sc.all {
			oneHop += f.SubflowDelivered(0)
			total += f.SubflowDelivered(0) + f.SubflowDelivered(1)
		}
		return flowsOut{rates, float64(oneHop) / float64(total)}
	}, func(res *Result, c *gridCell, o flowsOut) []string {
		mean := (o.rates[0] + o.rates[1] + o.rates[2]) / 3
		key := metricKey(c.vals[0])
		res.Metrics[key+"_mean_mbps"] = mean
		res.Metrics[key+"_onehop_share"] = o.stat
		return []string{f2(o.rates[0]), f2(o.rates[1]), f2(o.rates[2]), f2(mean), f2(o.stat)}
	})
	res.note("paper: even split gives 8 Mb/s/flow, EWTCP ~8.5, optimal (one-hop only) 12; COUPLED/MPTCP should approach the optimum")
	return res
}

func runFig3(cfg Config) *Result {
	g := grid{
		id:    "fig3-mesh",
		title: "Per-flow totals (Mb/s) and link loss-rate spread; paper: EWTCP (11,11,8) vs COUPLED (10,10,10)",
		axes:  []axis{{"algorithm", paperAlgs}},
		cols:  []string{"flowA", "flowB", "flowC", "max/min link loss"},
	}
	return runGrid(cfg, g, func(c *gridCell) flowsOut {
		w := c.world()
		sc := chainScene(w, mpAlg(c.vals[0]))
		rates := w.measure(sc.all, c.dur(60*sim.Second), c.dur(260*sim.Second))
		lo, hi := 1.0, 0.0
		for _, d := range sc.links {
			p := d.AB.Stats.LossFraction()
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
		spread := 0.0
		if lo > 0 {
			spread = hi / lo
		}
		return flowsOut{rates, spread}
	}, func(res *Result, c *gridCell, o flowsOut) []string {
		key := metricKey(c.vals[0])
		res.Metrics[key+"_flowA_mbps"] = o.rates[0]
		res.Metrics[key+"_flowC_mbps"] = o.rates[2]
		res.Metrics[key+"_loss_spread"] = o.stat
		return []string{f2(o.rates[0]), f2(o.rates[1]), f2(o.rates[2]), f1(o.stat)}
	})
}

// radioFlow decodes a row of the two-radio tables: "TCP-WiFi" and
// "TCP-3G" are single-path TCPs on path 0 and path 1, any other name is
// the algorithm of a flow over both paths[lo:hi].
func radioFlow(name string) (alg string, lo, hi int) {
	switch name {
	case "TCP-WiFi":
		return "REGULAR", 0, 1
	case "TCP-3G":
		return "REGULAR", 1, 2
	}
	return name, 0, 2
}

func runSec23(cfg Config) *Result {
	g := grid{
		id:    "sec23-wifi3g-model",
		title: "Throughput under fixed loss (pkt/s); paper: TCP-WiFi 707, TCP-3G 141, EWTCP 424, COUPLED 141, MPTCP >= 707",
		axes:  []axis{{"flow", append([]string{"TCP-WiFi", "TCP-3G"}, paperAlgs...)}},
		cols:  []string{"pkt/s"},
	}
	res := runGrid(cfg, g, func(c *gridCell) float64 {
		w := c.world()
		warm, end := c.dur(50*sim.Second), c.dur(350*sim.Second)
		alg, lo, hi := radioFlow(c.vals[0])
		flow := fixedLossScene(w, transport.Config{Alg: newAlg(alg)}, lo, hi).all[0]
		w.s.RunUntil(warm)
		base := flow.Delivered()
		w.s.RunUntil(end)
		return metrics.PktPerSec(flow.Delivered()-base, end-warm)
	}, func(res *Result, c *gridCell, rate float64) []string {
		res.Metrics[metricKey(c.vals[0])+"_pktps"] = rate
		return []string{f0(rate)}
	})
	res.note("√(2/p)/RTT predicts 707 and 141 pkt/s; packet-level rates run lower (timeouts at 4%% loss) but the ordering EWTCP in-between, COUPLED at 3G rate, MPTCP near best-path must hold")
	return res
}

func runFig5(cfg Config) *Result {
	g := grid{
		id:    "fig5-trap",
		title: "Multipath throughput (Mb/s) per phase: A = 2 TCPs/link, B = top TCP gone, C = top TCP back",
		axes:  []axis{{"algorithm", paperAlgs}},
		cols:  []string{"phaseA", "phaseB", "phaseC", "C recovery vs A"},
	}
	res := runGrid(cfg, g, func(c *gridCell) [3]float64 {
		w := c.world()
		rtt := 50 * sim.Millisecond
		phase := c.dur(100 * sim.Second)
		top := topo.NewDuplex("top", 10, rtt/2, topo.BDPPackets(10, rtt))
		bot := topo.NewDuplex("bot", 10, rtt/2, topo.BDPPackets(10, rtt))
		sc := linkScene(top, bot)
		for _, link := range []int{0, 0, 1, 1} {
			sc.add(w, transport.Config{}, sc.paths[link:link+1]).Start()
		}
		mp := sc.add(w, transport.Config{Alg: newAlg(c.vals[0])}, sc.paths)
		mp.Start()

		// A top-link TCP leaves, and a phase later one comes back.
		w.s.At(phase, sc.all[0].Stop)
		w.s.At(2*phase, func() { sc.add(w, transport.Config{}, sc.paths[:1]).Start() })

		// Skip the first third of each phase as transient.
		third := phase / 3
		var rates [3]float64
		for i := range rates {
			start := sim.Time(i) * phase
			w.s.RunUntil(start + third)
			base := mp.Delivered()
			w.s.RunUntil(start + phase)
			rates[i] = metrics.ThroughputMbps(mp.Delivered()-base, phase-third)
		}
		return rates
	}, func(res *Result, c *gridCell, r [3]float64) []string {
		key := metricKey(c.vals[0])
		res.Metrics[key+"_phaseA_mbps"] = r[0]
		res.Metrics[key+"_phaseB_mbps"] = r[1]
		res.Metrics[key+"_phaseC_mbps"] = r[2]
		return []string{f2(r[0]), f2(r[1]), f2(r[2]), f2(r[2] / r[0])}
	})
	res.note("after the departed TCP returns (phase C), a trapped algorithm is left with less than it had in phase A; MPTCP's per-path probe cap lets it re-balance")
	return res
}
