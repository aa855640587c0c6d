package exp

import (
	"mptcp/internal/core"
	"mptcp/internal/metrics"
	"mptcp/internal/scenario"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/transport"
)

func init() {
	register(&Experiment{
		ID:   "ablation-cap",
		Ref:  "§2.5 design choice",
		Desc: "MPTCP vs SEMICOUPLED (no 1/w_r cap, no RTT compensation) on the WiFi/3G mismatch: the cap + compensation is what recovers the best path's throughput.",
		Run:  runAblationCap,
	})
	register(&Experiment{
		ID:   "ablation-peracck",
		Ref:  "§2 implementation note",
		Desc: "MPTCP recomputing eq.(1) on every ACK vs only when the window grows a packet: the throughputs should agree (the cache is a pure CPU optimisation).",
		Run:  runAblationPerAck,
	})
	register(&Experiment{
		ID:   "ablation-reinject",
		Ref:  "§6 design choice",
		Desc: "Data-level reinjection after a path dies: with it the transfer finishes over the surviving path; without it the stream strands.",
		Run:  runAblationReinject,
	})
}

func runAblationCap(cfg Config) *Result {
	g := grid{
		id:    "ablation-cap",
		title: "Fixed-loss WiFi(4%,10ms)/3G(1%,100ms), pkt/s: the §2.5 cap + RTT compensation vs the plain SEMICOUPLED increase",
		axes:  []axis{{"algorithm", []string{"MPTCP (eq. 1)", "SEMICOUPLED a=1/n", "SEMICOUPLED a=1"}}},
		cols:  []string{"pkt/s", "WiFi pkt/s", "3G pkt/s"},
	}
	// Per row, the algorithm and an explicit metric key: both SemiCoupled
	// variants share Name() "SEMICOUPLED", so a key derived from it would
	// collide and the a=1 cell would silently overwrite the a=1/n value.
	algs := []func() core.Algorithm{
		func() core.Algorithm { return &core.MPTCP{} },
		func() core.Algorithm { return core.SemiCoupled{} },
		func() core.Algorithm { return core.SemiCoupled{A: 1} },
	}
	metric := []string{"mptcp_pktps", "semicoupled_pktps", "semicoupled_a1_pktps"}
	res := runGrid(cfg, g, func(c *gridCell) [2]float64 {
		w := c.world()
		warm, end := c.dur(50*sim.Second), c.dur(350*sim.Second)
		flow := fixedLossScene(w, transport.Config{Alg: algs[c.at[0]]()}, 0, 2).all[0]
		w.s.RunUntil(warm)
		b0, b1 := flow.SubflowDelivered(0), flow.SubflowDelivered(1)
		w.s.RunUntil(end)
		return [2]float64{metrics.PktPerSec(flow.SubflowDelivered(0)-b0, end-warm), metrics.PktPerSec(flow.SubflowDelivered(1)-b1, end-warm)}
	}, func(res *Result, c *gridCell, r [2]float64) []string {
		res.Metrics[metric[c.at[0]]] = r[0] + r[1]
		return []string{f0(r[0] + r[1]), f0(r[0]), f0(r[1])}
	})
	res.note("SEMICOUPLED weights windows by 1/p_r with no regard to RTT, so the short-RTT lossy WiFi path is underused; eq. (1) recovers it")
	return res
}

func runAblationPerAck(cfg Config) *Result {
	g := grid{
		id:    "ablation-peracck",
		title: "Torus (C=500 pkt/s): per-ACK eq.(1) vs recompute-on-window-growth",
		axes:  []axis{{"variant", []string{"per-ACK", "cached (paper impl.)"}}},
		cols:  []string{"mean flow pkt/s", "pA/pC"},
	}
	return runGrid(cfg, g, func(c *gridCell) [2]float64 {
		w := c.world()
		perAck := c.at[0] == 0
		sc := torusScene(w, 500, func() transport.Config { return transport.Config{Alg: &core.MPTCP{PerAck: perAck}} })
		rates := w.measure(sc.all, c.dur(50*sim.Second), c.dur(250*sim.Second))
		var mean float64
		for _, r := range rates {
			mean += r / 5
		}
		ratio := sc.links[0].AB.Stats.LossFraction() / sc.links[2].AB.Stats.LossFraction()
		return [2]float64{mean * 1e6 / (8 * 1500), ratio}
	}, func(res *Result, c *gridCell, r [2]float64) []string {
		res.Metrics[[]string{"peracck_pktps", "cached_pktps"}[c.at[0]]] = r[0]
		return []string{f0(r[0]), f2(r[1])}
	})
}

func runAblationReinject(cfg Config) *Result {
	g := grid{
		id:    "ablation-reinject",
		title: "8 MB transfer, path 2 dies mid-flight",
		axes:  []axis{{"variant", []string{"reinjection on (§6)", "reinjection off"}}},
		cols:  []string{"completed", "delivered pkts"},
	}
	return runGrid(cfg, g, func(c *gridCell) *transport.Conn {
		w := c.world()
		l1 := topo.NewDuplex("p1", 10, 10*sim.Millisecond, 50)
		l2 := topo.NewDuplex("p2", 10, 10*sim.Millisecond, 50)
		sc := linkScene(l1, l2)
		flow := sc.add(w, transport.Config{Alg: newAlg("MPTCP"), DataPackets: 6000, DisableReinject: c.at[0] == 1}, sc.paths)
		flow.Start()
		// Path death as a declarative scenario (bit-identical to the
		// closure it replaced; pinned by TestScenarioRewireGolden).
		sc.script(w, scenario.Scenario{Name: "path-death", Directives: []scenario.Directive{
			scenario.LinkDown{Link: 1, At: c.dur(2 * sim.Second)},
		}})
		w.s.RunUntil(c.dur(120 * sim.Second))
		return flow
	}, func(res *Result, c *gridCell, flow *transport.Conn) []string {
		metric := []string{"reinject", "noreinject"}[c.at[0]]
		done, doneMetric := "no", 0.0
		if flow.Done() {
			done, doneMetric = "yes", 1
		}
		res.Metrics[metric+"_done"] = doneMetric
		res.Metrics[metric+"_pkts"] = float64(flow.Delivered())
		return []string{done, f0(float64(flow.Delivered()))}
	})
}
