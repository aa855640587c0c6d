package exp

import (
	"mptcp/internal/core"
	"mptcp/internal/metrics"
	"mptcp/internal/model"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/traffic"
	"mptcp/internal/transport"
)

func init() {
	Register(&Experiment{
		ID:   "fig8-torus",
		Ref:  "§3 Fig. 7/8",
		Desc: "Five-link torus, five two-path flows, shrink link C: plot loss-rate ratio pA/pC per algorithm, plus Jain's index at C=100 pkt/s.",
		Run:  runFig8,
	})
	Register(&Experiment{
		ID:   "table-dynamic",
		Ref:  "§3 table (Fig. 9)",
		Desc: "Two 100 Mb/s links, bursty CBR on the top one: multipath throughput per link. Paper: EWTCP 85/100, MPTCP 83/99.8, COUPLED 55/99.4 Mb/s.",
		Run:  runTableDynamic,
	})
	Register(&Experiment{
		ID:   "fig10-server-lb",
		Ref:  "§3 Fig. 10",
		Desc: "Dual-homed server, 5 TCPs on link 1 and 15 on link 2; 10 MPTCP flows join at t=60 s and shift load toward the less congested link.",
		Run:  runFig10,
	})
	Register(&Experiment{
		ID:   "table-server-poisson",
		Ref:  "§3 second experiment",
		Desc: "Link 1: Poisson TCP arrivals alternating 10/s and 60/s with Pareto 200 kB files; link 2: one long TCP. Paper: MPTCP 61 > COUPLED 54 > EWTCP 47 Mb/s.",
		Run:  runServerPoisson,
	})
}

func runFig8(cfg Config) *Result {
	cfg = cfg.norm()
	res := newResult("fig8-torus")
	warm, end := cfg.dur(50*sim.Second), cfg.dur(250*sim.Second)
	capsC := []float64{100, 250, 500, 750, 1000}
	algs := algSet()

	fig := Figure{
		Title:  "Fig. 8: loss-rate ratio pA/pC vs capacity of link C (1.0 = perfectly balanced congestion)",
		XLabel: "capacity of link C (pkt/s)",
		YLabel: "pA/pC",
	}
	table := Table{
		Title: "Jain's fairness index of flow rates at C=100 pkt/s; paper: EWTCP 0.92, MPTCP 0.986, COUPLED 0.99",
		Cols:  []string{"algorithm", "jain@C=100", "pA/pC@C=100"},
	}
	// One cell per (algorithm, link-C capacity) pair.
	type torusOut struct{ ratio, jain float64 }
	cells := RunCells(cfg, len(algs)*len(capsC), func(cell Config, idx int) torusOut {
		alg := algSet()[idx/len(capsC)]
		capC := capsC[idx%len(capsC)]
		w := newWorld(cell.Seed)
		sc := torusScene(w, capC, func() transport.Config { return transport.Config{Alg: freshAlg(alg)} })
		flowRates := w.measure(sc.all, warm, end)
		pA := sc.links[0].AB.Stats.LossFraction()
		pC := sc.links[2].AB.Stats.LossFraction()
		ratio := 0.0
		if pC > 0 {
			ratio = pA / pC
		}
		return torusOut{ratio: ratio, jain: model.JainIndex(flowRates)}
	})
	for ai, alg := range algs {
		curve := Curve{Name: alg.Name()}
		var jainAt100, ratioAt100 float64
		for ci, capC := range capsC {
			out := cells[ai*len(capsC)+ci]
			curve.Pts = append(curve.Pts, Point{X: capC, Y: out.ratio})
			if capC == 100 {
				jainAt100 = out.jain
				ratioAt100 = out.ratio
			}
		}
		fig.Curves = append(fig.Curves, curve)
		table.Rows = append(table.Rows, []string{alg.Name(), f2(jainAt100), f2(ratioAt100)})
		res.Metrics[metricName(alg, "jain_c100")] = jainAt100
		res.Metrics[metricName(alg, "ratio_c100")] = ratioAt100
	}
	res.Figures = append(res.Figures, fig)
	res.Tables = append(res.Tables, table)
	res.note("COUPLED balances congestion best (ratio nearest 1), EWTCP worst, MPTCP in between — §3's static load-balancing result")
	return res
}

func runTableDynamic(cfg Config) *Result {
	cfg = cfg.norm()
	res := newResult("table-dynamic")
	end := cfg.dur(120 * sim.Second)
	warm := cfg.dur(10 * sim.Second)

	table := Table{
		Title: "Multipath throughput (Mb/s) with bursty CBR on the top link; paper: EWTCP 85/100, MPTCP 83/99.8, COUPLED 55/99.4",
		Cols:  []string{"algorithm", "top link", "bottom link", "total"},
	}
	cells := RunCells(cfg, len(algSet()), func(cell Config, i int) CellResult {
		alg := algSet()[i]
		w := newWorld(cell.Seed)
		// 2 ms propagation each way: the paper's "10 ms RTT" includes
		// queueing delay (a full 50-packet buffer adds ~6 ms), and the
		// 50-packet buffer must cover the bandwidth-delay product for
		// the bottom link to be fully utilisable.
		top := topo.NewDuplex("top", 100, 2*sim.Millisecond, 50)
		bot := topo.NewDuplex("bot", 100, 2*sim.Millisecond, 50)
		mp := transport.NewConn(w.n, transport.Config{
			Alg:   freshAlg(alg),
			Paths: []transport.Path{topo.PathThrough(top), topo.PathThrough(bot)},
		})
		mp.Start()
		cbr := traffic.NewOnOffCBR(w.n, 100, 10*sim.Millisecond, 100*sim.Millisecond, top.AB)
		cbr.Start()

		w.s.RunUntil(warm)
		b0, b1 := mp.SubflowDelivered(0), mp.SubflowDelivered(1)
		w.s.RunUntil(end)
		dur := end - warm
		topR := mbps(mp.SubflowDelivered(0)-b0, dur)
		botR := mbps(mp.SubflowDelivered(1)-b1, dur)
		return CellResult{
			Row: []string{alg.Name(), f1(topR), f1(botR), f1(topR + botR)},
			Metrics: map[string]float64{
				metricName(alg, "top_mbps"):    topR,
				metricName(alg, "bottom_mbps"): botR,
			},
		}
	})
	Collect(res, &table, cells)
	res.Tables = append(res.Tables, table)
	res.note("the CBR's 10 ms bursts at line rate mean ~91%% of the top link is free on average; COUPLED gets trapped off the top link after each burst (§2.4)")
	return res
}

func runFig10(cfg Config) *Result {
	cfg = cfg.norm()
	join := cfg.dur(60 * sim.Second)
	end := cfg.dur(180 * sim.Second)
	rtt := 20 * sim.Millisecond

	// A single scenario with shared dynamic state: one cell.
	return RunCells(cfg, 1, func(cell Config, _ int) *Result {
		res := newResult("fig10-server-lb")
		w := newWorld(cell.Seed)
		d := topo.NewDualHomed(100, rtt/2, topo.BDPPackets(100, rtt))
		var g1, g2, mps []*transport.Conn
		for i := 0; i < 5; i++ {
			c := transport.NewConn(w.n, transport.Config{Paths: d.ClientPath(1)})
			c.Start()
			g1 = append(g1, c)
		}
		for i := 0; i < 15; i++ {
			c := transport.NewConn(w.n, transport.Config{Paths: d.ClientPath(2)})
			c.Start()
			g2 = append(g2, c)
		}
		w.s.At(join, func() {
			for i := 0; i < 10; i++ {
				c := transport.NewConn(w.n, transport.Config{Alg: &core.MPTCP{}, Paths: d.MultipathPaths()})
				c.Start()
				mps = append(mps, c)
			}
		})

		sum := func(conns []*transport.Conn) float64 {
			var t int64
			for _, c := range conns {
				t += c.Delivered()
			}
			return float64(t)
		}
		sampler := metrics.NewSampler(w.s, cell.dur(2*sim.Second))
		sampler.Probe("link1-tcps", func() float64 { return sum(g1) })
		sampler.Probe("link2-tcps", func() float64 { return sum(g2) })
		sampler.Probe("mptcp", func() float64 { return sum(mps) })
		sampler.Start()
		w.s.RunUntil(end)

		fig := Figure{
			Title:  "Fig. 10: aggregate throughput per group (Mb/s); MPTCP flows join at t=60s·scale",
			XLabel: "time (s)",
			YLabel: "Mb/s",
		}
		for _, name := range sampler.Names() {
			rate := sampler.Series(name).Rate()
			c := Curve{Name: name}
			for i := 0; i < rate.Len(); i++ {
				c.Pts = append(c.Pts, Point{X: rate.Times[i].Seconds(), Y: rate.Vals[i] * 1500 * 8 / 1e6})
			}
			fig.Curves = append(fig.Curves, c)
		}
		res.Figures = append(res.Figures, fig)

		// Steady state after the join: per-flow throughput by group over an
		// extension window of the same length as the post-join period.
		base1, base2, baseM := sum(g1), sum(g2), sum(mps)
		dur := end - join
		w.s.RunUntil(end + dur)
		perFlow := func(now, base float64, n int) float64 {
			return mbps(int64(now-base), dur) / float64(n)
		}
		t1 := perFlow(sum(g1), base1, 5)
		t2 := perFlow(sum(g2), base2, 15)
		tm := perFlow(sum(mps), baseM, 10)
		table := Table{
			Title: "Steady state after MPTCP joins: per-flow throughput (Mb/s); load balancing should pull the groups together",
			Cols:  []string{"group", "per-flow Mb/s"},
			Rows: [][]string{
				{"5 TCPs on link1", f2(t1)},
				{"15 TCPs on link2", f2(t2)},
				{"10 MPTCP on both", f2(tm)},
			},
		}
		res.Tables = append(res.Tables, table)
		res.Metrics["link1_perflow_mbps"] = t1
		res.Metrics["link2_perflow_mbps"] = t2
		res.Metrics["mptcp_perflow_mbps"] = tm
		// Before the join, link1 TCPs get ~20 and link2 ~6.7; perfect
		// balancing afterwards gives everyone 200/30 = 6.7.
		res.Metrics["imbalance_after"] = t1 / t2
		return res
	})[0]
}

func runServerPoisson(cfg Config) *Result {
	cfg = cfg.norm()
	end := cfg.dur(300 * sim.Second)
	phase := cfg.dur(30 * sim.Second)
	rtt := 20 * sim.Millisecond

	// The three multipath algorithms compete in one shared world, as in
	// the paper, so this is a single cell.
	return RunCells(cfg, 1, func(cell Config, _ int) *Result {
		res := newResult("table-server-poisson")
		w := newWorld(cell.Seed)
		d := topo.NewDualHomed(100, rtt/2, topo.BDPPackets(100, rtt))

		// Link 2: one long-lived TCP.
		long := transport.NewConn(w.n, transport.Config{Paths: d.ClientPath(2)})
		long.Start()

		mpConns := make([]*transport.Conn, 0, 3)
		for _, alg := range algSet() {
			c := transport.NewConn(w.n, transport.Config{Alg: freshAlg(alg), Paths: d.MultipathPaths()})
			c.Start()
			mpConns = append(mpConns, c)
		}

		// Link 1: Poisson arrivals of Pareto-sized TCP downloads, alternating
		// light (10/s) and heavy (60/s) phases.
		sizes := traffic.NewParetoMean(1.5, 200e3/1500) // mean 200 kB in packets
		pa := &traffic.PoissonArrivals{Net: w.n, Rate: 10}
		pa.Spawn = func() {
			n := int64(sizes.Sample(w.s.Rand()))
			if n < 1 {
				n = 1
			}
			c := transport.NewConn(w.n, transport.Config{Paths: d.ClientPath(1), DataPackets: n})
			c.Start()
		}
		pa.Start()
		var flip func()
		flip = func() {
			if pa.Rate == 10 {
				pa.Rate = 60
			} else {
				pa.Rate = 10
			}
			w.s.After(phase, flip)
		}
		w.s.After(phase, flip)

		rates := w.measure(mpConns, cell.dur(20*sim.Second), end)
		table := Table{
			Title: "Average multipath throughput (Mb/s); paper: MPTCP 61, COUPLED 54, EWTCP 47",
			Cols:  []string{"algorithm", "Mb/s"},
		}
		for i, alg := range algSet() {
			table.Rows = append(table.Rows, []string{alg.Name(), f1(rates[i])})
			res.Metrics[metricName(alg, "mbps")] = rates[i]
		}
		res.Tables = append(res.Tables, table)
		res.note("in heavy load EWTCP moves too little off link 1; in light load COUPLED stays trapped on link 2 after bursts clear (§3)")
		return res
	})[0]
}
