package exp

import (
	"mptcp/internal/core"
	"mptcp/internal/scenario"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/transport"
)

func init() {
	Register(&Experiment{
		ID:   "ablation-cap",
		Ref:  "§2.5 design choice",
		Desc: "MPTCP vs SEMICOUPLED (no 1/w_r cap, no RTT compensation) on the WiFi/3G mismatch: the cap + compensation is what recovers the best path's throughput.",
		Run:  runAblationCap,
	})
	Register(&Experiment{
		ID:   "ablation-peracck",
		Ref:  "§2 implementation note",
		Desc: "MPTCP recomputing eq.(1) on every ACK vs only when the window grows a packet: the throughputs should agree (the cache is a pure CPU optimisation).",
		Run:  runAblationPerAck,
	})
	Register(&Experiment{
		ID:   "ablation-reinject",
		Ref:  "§6 design choice",
		Desc: "Data-level reinjection after a path dies: with it the transfer finishes over the surviving path; without it the stream strands.",
		Run:  runAblationReinject,
	})
}

func runAblationCap(cfg Config) *Result {
	cfg = cfg.norm()
	res := newResult("ablation-cap")
	warm, end := cfg.dur(50*sim.Second), cfg.dur(350*sim.Second)

	table := Table{
		Title: "Fixed-loss WiFi(4%,10ms)/3G(1%,100ms), pkt/s: the §2.5 cap + RTT compensation vs the plain SEMICOUPLED increase",
		Cols:  []string{"algorithm", "pkt/s", "WiFi pkt/s", "3G pkt/s"},
	}
	// Explicit metric keys: both SemiCoupled variants share Name()
	// "SEMICOUPLED", so metricName would collide and the a=1 cell would
	// silently overwrite the a=1/n value.
	variants := []struct {
		name   string
		metric string
		alg    func() core.Algorithm
	}{
		{"MPTCP (eq. 1)", "mptcp_pktps", func() core.Algorithm { return &core.MPTCP{} }},
		{"SEMICOUPLED a=1/n", "semicoupled_pktps", func() core.Algorithm { return core.SemiCoupled{} }},
		{"SEMICOUPLED a=1", "semicoupled_a1_pktps", func() core.Algorithm { return core.SemiCoupled{A: 1} }},
	}
	cells := RunCells(cfg, len(variants), func(cell Config, i int) CellResult {
		alg := variants[i].alg()
		w := newWorld(cell.Seed)
		wifi := topo.NewDuplexPkt("wifi", 5000, 5*sim.Millisecond, 5000)
		wifi.AB.LossRate = 0.04
		g3 := topo.NewDuplexPkt("3g", 5000, 50*sim.Millisecond, 5000)
		g3.AB.LossRate = 0.01
		c := transport.NewConn(w.n, transport.Config{
			Alg:   alg,
			Paths: []transport.Path{topo.PathThrough(wifi), topo.PathThrough(g3)},
		})
		c.Start()
		w.s.RunUntil(warm)
		b0, b1 := c.SubflowDelivered(0), c.SubflowDelivered(1)
		w.s.RunUntil(end)
		dur := end - warm
		rw := pktps(c.SubflowDelivered(0)-b0, dur)
		rg := pktps(c.SubflowDelivered(1)-b1, dur)
		return CellResult{
			Row:     []string{variants[i].name, f0(rw + rg), f0(rw), f0(rg)},
			Metrics: map[string]float64{variants[i].metric: rw + rg},
		}
	})
	Collect(res, &table, cells)
	res.Tables = append(res.Tables, table)
	res.note("SEMICOUPLED weights windows by 1/p_r with no regard to RTT, so the short-RTT lossy WiFi path is underused; eq. (1) recovers it")
	return res
}

func runAblationPerAck(cfg Config) *Result {
	cfg = cfg.norm()
	res := newResult("ablation-peracck")
	warm, end := cfg.dur(50*sim.Second), cfg.dur(250*sim.Second)

	table := Table{
		Title: "Torus (C=500 pkt/s): per-ACK eq.(1) vs recompute-on-window-growth",
		Cols:  []string{"variant", "mean flow pkt/s", "pA/pC"},
	}
	perAckVariants := []bool{true, false}
	cells := RunCells(cfg, len(perAckVariants), func(cell Config, i int) CellResult {
		perAck := perAckVariants[i]
		w := newWorld(cell.Seed)
		sc := torusScene(w, 500, func() transport.Config { return transport.Config{Alg: &core.MPTCP{PerAck: perAck}} })
		rates := w.measure(sc.all, warm, end)
		var mean float64
		for _, r := range rates {
			mean += r / 5
		}
		meanPkt := mean * 1e6 / (8 * 1500)
		ratio := sc.links[0].AB.Stats.LossFraction() / sc.links[2].AB.Stats.LossFraction()
		name := "cached (paper impl.)"
		metric := "cached_pktps"
		if perAck {
			name = "per-ACK"
			metric = "peracck_pktps"
		}
		return CellResult{
			Row:     []string{name, f0(meanPkt), f2(ratio)},
			Metrics: map[string]float64{metric: meanPkt},
		}
	})
	Collect(res, &table, cells)
	res.Tables = append(res.Tables, table)
	return res
}

func runAblationReinject(cfg Config) *Result {
	cfg = cfg.norm()
	res := newResult("ablation-reinject")
	total := int64(6000)

	table := Table{
		Title: "8 MB transfer, path 2 dies mid-flight",
		Cols:  []string{"variant", "completed", "delivered pkts"},
	}
	disableVariants := []bool{false, true}
	cells := RunCells(cfg, len(disableVariants), func(cell Config, i int) CellResult {
		disable := disableVariants[i]
		w := newWorld(cell.Seed)
		l1 := topo.NewDuplex("p1", 10, 10*sim.Millisecond, 50)
		l2 := topo.NewDuplex("p2", 10, 10*sim.Millisecond, 50)
		c := transport.NewConn(w.n, transport.Config{
			Alg:             &core.MPTCP{},
			Paths:           []transport.Path{topo.PathThrough(l1), topo.PathThrough(l2)},
			DataPackets:     total,
			DisableReinject: disable,
		})
		c.Start()
		// Path death as a declarative scenario (bit-identical to the
		// closure it replaced; pinned by TestScenarioRewireGolden).
		death := scenario.Scenario{Name: "path-death", Directives: []scenario.Directive{
			scenario.LinkDown{Link: 1, At: cell.dur(2 * sim.Second)},
		}}
		death.MustInstall(&scenario.Env{Sim: w.s, Net: w.n, Links: []*topo.Duplex{l1, l2}})
		w.s.RunUntil(cell.dur(120 * sim.Second))
		name := "reinjection on (§6)"
		metric := "reinject"
		if disable {
			name = "reinjection off"
			metric = "noreinject"
		}
		done, doneMetric := "no", 0.0
		if c.Done() {
			done, doneMetric = "yes", 1
		}
		return CellResult{
			Row: []string{name, done, f0(float64(c.Delivered()))},
			Metrics: map[string]float64{
				metric + "_done": doneMetric,
				metric + "_pkts": float64(c.Delivered()),
			},
		}
	})
	Collect(res, &table, cells)
	res.Tables = append(res.Tables, table)
	return res
}
