package exp

import (
	"mptcp/internal/metrics"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/traffic"
	"mptcp/internal/transport"
)

func init() {
	register(&Experiment{
		ID:   "fig8-torus",
		Ref:  "§3 Fig. 7/8",
		Desc: "Five-link torus, five two-path flows, shrink link C: plot loss-rate ratio pA/pC per algorithm, plus Jain's index at C=100 pkt/s.",
		Run:  runFig8,
	})
	register(&Experiment{
		ID:   "table-dynamic",
		Ref:  "§3 table (Fig. 9)",
		Desc: "Two 100 Mb/s links, bursty CBR on the top one: multipath throughput per link. Paper: EWTCP 85/100, MPTCP 83/99.8, COUPLED 55/99.4 Mb/s.",
		Run:  runTableDynamic,
	})
	register(&Experiment{
		ID:   "fig10-server-lb",
		Ref:  "§3 Fig. 10",
		Desc: "Dual-homed server, 5 TCPs on link 1 and 15 on link 2; 10 MPTCP flows join at t=60 s and shift load toward the less congested link.",
		Run:  runFig10,
	})
	register(&Experiment{
		ID:   "table-server-poisson",
		Ref:  "§3 second experiment",
		Desc: "Link 1: Poisson TCP arrivals alternating 10/s and 60/s with Pareto 200 kB files; link 2: one long TCP. Paper: MPTCP 61 > COUPLED 54 > EWTCP 47 Mb/s.",
		Run:  runServerPoisson,
	})
}

func runFig8(cfg Config) *Result {
	capsC := []float64{100, 250, 500, 750, 1000}
	g := grid{id: "fig8-torus", axes: []axis{{"algorithm", paperAlgs}, {"capacity", axisVals(capsC)}}}
	res := newResult(g.id)

	type out struct{ ratio, jain float64 }
	cells, outs := sweep(res, cfg, g, func(c *gridCell) out {
		w := c.world()
		sc := torusScene(w, capsC[c.at[1]], mpAlg(c.vals[0]))
		flowRates := w.measure(sc.all, c.dur(50*sim.Second), c.dur(250*sim.Second))
		pA := sc.links[0].AB.Stats.LossFraction()
		pC := sc.links[2].AB.Stats.LossFraction()
		ratio := 0.0
		if pC > 0 {
			ratio = pA / pC
		}
		return out{ratio: ratio, jain: metrics.JainIndex(flowRates)}
	})

	fig := Figure{
		Title:  "Fig. 8: loss-rate ratio pA/pC vs capacity of link C (1.0 = perfectly balanced congestion)",
		XLabel: "capacity of link C (pkt/s)",
		YLabel: "pA/pC",
	}
	table := Table{
		Title: "Jain's fairness index of flow rates at C=100 pkt/s; paper: EWTCP 0.92, MPTCP 0.986, COUPLED 0.99",
		Cols:  []string{"algorithm", "jain@C=100", "pA/pC@C=100"},
	}
	for i, c := range cells {
		alg, capC, o := c.vals[0], capsC[c.at[1]], outs[i]
		if c.at[1] == 0 {
			fig.Curves = append(fig.Curves, Curve{Name: alg})
		}
		curve := &fig.Curves[c.at[0]]
		curve.Pts = append(curve.Pts, Point{X: capC, Y: o.ratio})
		if capC == 100 {
			table.Rows = append(table.Rows, []string{alg, f2(o.jain), f2(o.ratio)})
			res.Metrics[metricKey(alg)+"_jain_c100"] = o.jain
			res.Metrics[metricKey(alg)+"_ratio_c100"] = o.ratio
		}
	}
	res.Figures = append(res.Figures, fig)
	res.Tables = append(res.Tables, table)
	res.note("COUPLED balances congestion best (ratio nearest 1), EWTCP worst, MPTCP in between — §3's static load-balancing result")
	return res
}

func runTableDynamic(cfg Config) *Result {
	g := grid{
		id:    "table-dynamic",
		title: "Multipath throughput (Mb/s) with bursty CBR on the top link; paper: EWTCP 85/100, MPTCP 83/99.8, COUPLED 55/99.4",
		axes:  []axis{{"algorithm", paperAlgs}},
		cols:  []string{"top link", "bottom link", "total"},
	}
	res := runGrid(cfg, g, func(c *gridCell) [2]float64 {
		w := c.world()
		warm, end := c.dur(10*sim.Second), c.dur(120*sim.Second)
		// 2 ms propagation each way: the paper's "10 ms RTT" includes
		// queueing delay (a full 50-packet buffer adds ~6 ms), and the
		// 50-packet buffer must cover the bandwidth-delay product for
		// the bottom link to be fully utilisable.
		top := topo.NewDuplex("top", 100, 2*sim.Millisecond, 50)
		bot := topo.NewDuplex("bot", 100, 2*sim.Millisecond, 50)
		sc := linkScene(top, bot)
		mp := sc.add(w, transport.Config{Alg: newAlg(c.vals[0])}, sc.paths)
		mp.Start()
		traffic.NewOnOffCBR(w.n, 100, 10*sim.Millisecond, 100*sim.Millisecond, top.AB).Start()

		w.s.RunUntil(warm)
		b0, b1 := mp.SubflowDelivered(0), mp.SubflowDelivered(1)
		w.s.RunUntil(end)
		return [2]float64{metrics.ThroughputMbps(mp.SubflowDelivered(0)-b0, end-warm), metrics.ThroughputMbps(mp.SubflowDelivered(1)-b1, end-warm)}
	}, func(res *Result, c *gridCell, r [2]float64) []string {
		res.Metrics[metricKey(c.vals[0])+"_top_mbps"] = r[0]
		res.Metrics[metricKey(c.vals[0])+"_bottom_mbps"] = r[1]
		return []string{f1(r[0]), f1(r[1]), f1(r[0] + r[1])}
	})
	res.note("the CBR's 10 ms bursts at line rate mean ~91%% of the top link is free on average; COUPLED gets trapped off the top link after each burst (§2.4)")
	return res
}

// delivered sums the packets delivered so far over a group of flows.
func delivered(conns []*transport.Conn) float64 {
	var t int64
	for _, c := range conns {
		t += c.Delivered()
	}
	return float64(t)
}

func runFig10(cfg Config) *Result {
	// One world whose groups share the server's links: a single cell.
	return oneWorld(cfg, "fig10-server-lb", func(c *gridCell, res *Result) {
		join, end := c.dur(60*sim.Second), c.dur(180*sim.Second)
		w := c.world()
		sc := dualHomedScene(w, 5, 15, 0, nil)
		g1, g2 := sc.all[:5], sc.all[5:20]
		w.s.At(join, func() {
			for i := 0; i < 10; i++ {
				sc.add(w, transport.Config{Alg: newAlg("MPTCP")}, sc.paths).Start()
				sc.hi++
			}
		})

		sampler := metrics.NewSampler(w.s, c.dur(2*sim.Second))
		sampler.Probe("link1-tcps", func() float64 { return delivered(g1) })
		sampler.Probe("link2-tcps", func() float64 { return delivered(g2) })
		sampler.Probe("mptcp", func() float64 { return delivered(sc.mp()) })
		sampler.Start()
		w.s.RunUntil(end)

		fig := Figure{
			Title:  "Fig. 10: aggregate throughput per group (Mb/s); MPTCP flows join at t=60s·scale",
			XLabel: "time (s)",
			YLabel: "Mb/s",
		}
		fig.Curves = rateCurves(sampler)
		res.Figures = append(res.Figures, fig)

		// Steady state after the join: per-flow throughput by group over an
		// extension window of the same length as the post-join period.
		base1, base2, baseM := delivered(g1), delivered(g2), delivered(sc.mp())
		dur := end - join
		w.s.RunUntil(end + dur)
		perFlow := func(now, base float64, n int) float64 {
			return metrics.ThroughputMbps(int64(now-base), dur) / float64(n)
		}
		t1 := perFlow(delivered(g1), base1, 5)
		t2 := perFlow(delivered(g2), base2, 15)
		tm := perFlow(delivered(sc.mp()), baseM, 10)
		res.Tables = append(res.Tables, Table{
			Title: "Steady state after MPTCP joins: per-flow throughput (Mb/s); load balancing should pull the groups together",
			Cols:  []string{"group", "per-flow Mb/s"},
			Rows: [][]string{
				{"5 TCPs on link1", f2(t1)},
				{"15 TCPs on link2", f2(t2)},
				{"10 MPTCP on both", f2(tm)},
			},
		})
		res.Metrics["link1_perflow_mbps"] = t1
		res.Metrics["link2_perflow_mbps"] = t2
		res.Metrics["mptcp_perflow_mbps"] = tm
		// Before the join, link1 TCPs get ~20 and link2 ~6.7; perfect
		// balancing afterwards gives everyone 200/30 = 6.7.
		res.Metrics["imbalance_after"] = t1 / t2
	})
}

// rateCurves renders every probe of a sampler of delivered-packet
// counters as a curve of Mb/s over time.
func rateCurves(sampler *metrics.Sampler) []Curve {
	var curves []Curve
	for _, name := range sampler.Names() {
		rate := sampler.Series(name).Rate()
		c := Curve{Name: name}
		for i := 0; i < rate.Len(); i++ {
			c.Pts = append(c.Pts, Point{X: rate.Times[i].Seconds(), Y: rate.Vals[i] * 1500 * 8 / 1e6})
		}
		curves = append(curves, c)
	}
	return curves
}

func runServerPoisson(cfg Config) *Result {
	// The three multipath algorithms compete in one shared world, as in
	// the paper, so this is a single cell.
	return oneWorld(cfg, "table-server-poisson", func(c *gridCell, res *Result) {
		end, phase := c.dur(300*sim.Second), c.dur(30*sim.Second)
		w := c.world()
		// Link 2: one long-lived TCP; then one multipath flow per algorithm.
		next := 0
		sc := dualHomedScene(w, 0, 1, len(paperAlgs), func() transport.Config {
			next++
			return transport.Config{Alg: newAlg(paperAlgs[next-1])}
		})

		// Link 1: Poisson arrivals of Pareto-sized TCP downloads, alternating
		// light (10/s) and heavy (60/s) phases. The downloads are background
		// load and stay untraced: a tracer ring per arrival would hold more
		// than a megabyte for each of thousands of short flows.
		sizes := traffic.NewParetoMean(1.5, 200e3/1500) // mean 200 kB in packets
		pa := &traffic.PoissonArrivals{Net: w.n, Rate: 10}
		pool := transport.NewConnPool(w.n)
		done := pool.Put // bound once: every arrival shares it
		pa.Spawn = func() {
			n := int64(sizes.Sample(w.s.Rand()))
			if n < 1 {
				n = 1
			}
			pool.Get(transport.Config{Paths: sc.paths[:1], DataPackets: n, OnComplete: done}).Start()
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

		rates := w.measure(sc.mp(), c.dur(20*sim.Second), end)
		table := Table{
			Title: "Average multipath throughput (Mb/s); paper: MPTCP 61, COUPLED 54, EWTCP 47",
			Cols:  []string{"algorithm", "Mb/s"},
		}
		for i, alg := range paperAlgs {
			table.Rows = append(table.Rows, []string{alg, f1(rates[i])})
			res.Metrics[metricKey(alg)+"_mbps"] = rates[i]
		}
		res.Tables = append(res.Tables, table)
		res.note("in heavy load EWTCP moves too little off link 1; in light load COUPLED stays trapped on link 2 after bursts clear (§3)")
	})
}
