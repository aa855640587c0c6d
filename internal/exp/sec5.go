package exp

import (
	"fmt"

	"mptcp/internal/metrics"
	"mptcp/internal/scenario"
	"mptcp/internal/sim"
	"mptcp/internal/transport"
)

func init() {
	register(&Experiment{
		ID:   "table-wireless-static",
		Ref:  "§5 static experiment",
		Desc: "Idle WiFi + 3G: single-path TCPs get ~14.4 and ~2.1 Mb/s; MPTCP gets roughly their sum (paper: 17.3).",
		Run:  runWirelessStatic,
	})
	register(&Experiment{
		ID:   "fig15-wireless-compete",
		Ref:  "§5 Fig. 15",
		Desc: "WiFi + 3G with one competing TCP per path. Paper (Mb/s, multipath/TCP-WiFi/TCP-3G): EWTCP 1.66/3.11/1.20, COUPLED 1.41/3.49/0.97, MPTCP 2.21/2.56/0.65.",
		Run:  runFig15,
	})
	register(&Experiment{
		ID:   "sec5-wired-sim",
		Ref:  "§5 simulation",
		Desc: "C1=250 pkt/s RTT 500 ms vs C2=500 pkt/s RTT 50 ms: paper gets S1 130, S2 315, M 305 pkt/s — M matches what a TCP would get at path 2's loss rate, not a naive 250.",
		Run:  runSec5Wired,
	})
	register(&Experiment{
		ID:   "fig16-rtt-sweep",
		Ref:  "§5 Fig. 16",
		Desc: "Sweep RTT2 and C2 against a fixed 400 pkt/s/100 ms link 1: the ratio of M's throughput to the better of S1/S2 should stay near 1.",
		Run:  runFig16,
	})
	register(&Experiment{
		ID:   "fig17-mobility",
		Ref:  "§5 Fig. 17 (mobile)",
		Desc: "Walk through the building: WiFi coverage drops on the stairwell, 3G congestion varies; MPTCP rebalances continuously and never stalls.",
		Run:  runFig17,
	})
}

func runWirelessStatic(cfg Config) *Result {
	g := grid{
		id:    "table-wireless-static",
		title: "Idle-path throughput (Mb/s); paper: TCP-WiFi 14.4, TCP-3G 2.1, MPTCP 17.3 (the sum)",
		axes:  []axis{{"flow", []string{"TCP-WiFi", "TCP-3G", "MPTCP"}}},
		cols:  []string{"Mb/s"},
	}
	res := runGrid(cfg, g, func(c *gridCell) float64 {
		w := c.world()
		alg, lo, hi := radioFlow(c.vals[0])
		sc := goodWireless()
		sc.add(w, transport.Config{Alg: newAlg(alg)}, sc.paths[lo:hi]).Start()
		return w.measure(sc.all, c.dur(10*sim.Second), c.dur(110*sim.Second))[0]
	}, func(res *Result, c *gridCell, r float64) []string {
		res.Metrics[metricKey(c.vals[0])+"_mbps"] = r
		return []string{f2(r)}
	})
	m := res.Metrics
	m["sum_ratio"] = m["mptcp_mbps"] / (m["tcp_wifi_mbps"] + m["tcp_3g_mbps"])
	res.note("§2.5: with no competing traffic both access links are fully utilised, so MPTCP's fairness goals permit the full sum")
	return res
}

func runFig15(cfg Config) *Result {
	g := grid{
		id:    "fig15-wireless-compete",
		title: "Competing flows (Mb/s); paper: EWTCP 1.66/3.11/1.20, COUPLED 1.41/3.49/0.97, MPTCP 2.21/2.56/0.65 (multipath/TCP-WiFi/TCP-3G)",
		axes:  []axis{{"algorithm", paperAlgs}},
		cols:  []string{"multipath", "TCP-WiFi", "TCP-3G", "mp WiFi-share"},
	}
	res := runGrid(cfg, g, func(c *gridCell) flowsOut {
		w := c.world()
		sc := wifi3gScene(w, mpAlg(c.vals[0]))
		rates := w.measure(sc.all, c.dur(30*sim.Second), c.dur(330*sim.Second))
		mp := sc.all[0]
		wifiShare := 0.0
		if d := mp.SubflowDelivered(0) + mp.SubflowDelivered(1); d > 0 {
			wifiShare = float64(mp.SubflowDelivered(0)) / float64(d)
		}
		return flowsOut{rates, wifiShare}
	}, func(res *Result, c *gridCell, o flowsOut) []string {
		key := metricKey(c.vals[0])
		res.Metrics[key+"_mp_mbps"] = o.rates[0]
		res.Metrics[key+"_tcpwifi_mbps"] = o.rates[1]
		res.Metrics[key+"_tcp3g_mbps"] = o.rates[2]
		return []string{f2(o.rates[0]), f2(o.rates[1]), f2(o.rates[2]), f2(o.stat)}
	})
	res.note("only MPTCP approaches the competing WiFi TCP's throughput; COUPLED hides on the 3G path, EWTCP splits half-and-half")
	return res
}

func runSec5Wired(cfg Config) *Result {
	// S1, S2 and M compete in one shared world: a single cell.
	return oneWorld(cfg, "sec5-wired-sim", func(c *gridCell, res *Result) {
		w := c.world()
		sc := wiredPairScene(w, pktLink("link1", 250, 500*sim.Millisecond), pktLink("link2", 500, 50*sim.Millisecond))
		rates := w.measure(sc.all, c.dur(100*sim.Second), c.dur(500*sim.Second))
		toPkt := 1e6 / (8.0 * 1500)
		p1 := sc.links[0].AB.Stats.LossFraction()
		p2 := sc.links[1].AB.Stats.LossFraction()

		res.Tables = append(res.Tables, Table{
			Title: "Throughput (pkt/s) and loss; paper: S1 130, S2 315, M 305, p1 0.22%, p2 0.28%",
			Cols:  []string{"flow", "pkt/s"},
			Rows: [][]string{
				{"S1 (link1 only)", f0(rates[0] * toPkt)},
				{"S2 (link2 only)", f0(rates[1] * toPkt)},
				{"M (both links)", f0(rates[2] * toPkt)},
				{"p1 (%)", f2(p1 * 100)},
				{"p2 (%)", f2(p2 * 100)},
			},
		})
		res.Metrics["s1_pktps"] = rates[0] * toPkt
		res.Metrics["s2_pktps"] = rates[1] * toPkt
		res.Metrics["m_pktps"] = rates[2] * toPkt
		res.note("M aims for what a single-path TCP would get at path 2's loss rate (~S2), not for C2/2 = 250 pkt/s — §5's subtle fairness point")
	})
}

func runFig16(cfg Config) *Result {
	rtts := []float64{12, 25, 50, 100, 200, 400, 800} // ms
	caps := []float64{400, 800, 1600, 3200}           // pkt/s
	g := grid{id: "fig16-rtt-sweep", axes: []axis{{"C2", axisVals(caps)}, {"RTT2", axisVals(rtts)}}}
	res := newResult(g.id)
	cells, ratios := sweep(res, cfg, g, func(c *gridCell) float64 {
		w := c.world()
		c2, rtt2 := caps[c.at[0]], sim.Time(rtts[c.at[1]]*float64(sim.Millisecond))
		sc := wiredPairScene(w, pktLink("l1", 400, 100*sim.Millisecond), pktLink("l2", c2, rtt2))
		rates := w.measure(sc.all, c.dur(60*sim.Second), c.dur(360*sim.Second))
		denom := rates[0]
		if rates[1] > denom {
			denom = rates[1]
		}
		if denom <= 0 {
			return 0
		}
		return rates[2] / denom
	})

	fig := Figure{
		Title:  "Fig. 16: M's throughput / best(S1, S2) — one curve per C2",
		XLabel: "RTT2 (ms)",
		YLabel: "ratio",
	}
	worst, best, sum := 2.0, 0.0, 0.0
	for i, c := range cells {
		ratio := ratios[i]
		if c.at[1] == 0 {
			fig.Curves = append(fig.Curves, Curve{Name: "C2=" + f0(caps[c.at[0]])})
		}
		curve := &fig.Curves[c.at[0]]
		curve.Pts = append(curve.Pts, Point{X: rtts[c.at[1]], Y: ratio})
		if ratio < worst {
			worst = ratio
		}
		if ratio > best {
			best = ratio
		}
		sum += ratio
	}
	res.Figures = append(res.Figures, fig)
	res.Metrics["ratio_mean"] = sum / float64(len(cells))
	res.Metrics["ratio_worst"] = worst
	res.Metrics["ratio_best"] = best
	res.note("paper: within a few percent of 1.0 except where link 2's bandwidth-delay product is very small (timeout-dominated)")
	return res
}

func runFig17(cfg Config) *Result {
	// One continuous walk with shared link state: a single cell.
	return oneWorld(cfg, "fig17-mobility", func(c *gridCell, res *Result) {
		// Timeline (scaled): phase 1 walk around the office, phase 2 the
		// stairwell (no WiFi, good 3G), phase 3 near a fresh basestation.
		p1 := c.dur(240 * sim.Second)
		p2 := c.dur(60 * sim.Second)
		p3 := c.dur(120 * sim.Second)

		w := c.world()
		sc := radioPair(radio{10, 8 * sim.Millisecond, 25, 0.01}, radio{2.0, 50 * sim.Millisecond, 300, 0.0005})
		tcpW := sc.add(w, transport.Config{}, sc.paths[:1])
		tcpG := sc.add(w, transport.Config{}, sc.paths[1:])
		mp := sc.add(w, transport.Config{Alg: newAlg("MPTCP")}, sc.paths)
		tcpW.Start()
		tcpG.Start()
		w.s.After(c.dur(10*sim.Second), mp.Start)

		// The walk, as a declarative scenario over [WiFi, 3G]: entering
		// the stairwell kills WiFi and improves 3G; afterwards a new
		// basestation appears with better radio. Rates are absolute Mb/s
		// (the paper's measured conditions), so the rewire onto
		// internal/scenario is bit-identical to the hand-coded closures
		// it replaced (pinned by TestScenarioRewireGolden).
		sc.script(w, scenario.Scenario{Name: "fig17-walk", Directives: []scenario.Directive{
			scenario.LinkDown{Link: 0, At: p1},
			scenario.RateRamp{Link: 1, Start: p1, To: 2.8, Abs: true},
			scenario.LinkUp{Link: 0, At: p1 + p2},
			scenario.RateRamp{Link: 0, Start: p1 + p2, To: 12, Abs: true},
			scenario.LossStep{Link: 0, At: p1 + p2, Loss: 0.004},
			scenario.RateRamp{Link: 1, Start: p1 + p2, To: 2.0, Abs: true},
		}})

		sampler := metrics.NewSampler(w.s, c.dur(5*sim.Second))
		sampler.Probe("mp-wifi", func() float64 { return float64(mp.SubflowDelivered(0)) })
		sampler.Probe("mp-3g", func() float64 { return float64(mp.SubflowDelivered(1)) })
		sampler.Probe("tcp-wifi", func() float64 { return float64(tcpW.Delivered()) })
		sampler.Probe("tcp-3g", func() float64 { return float64(tcpG.Delivered()) })
		sampler.Start()
		end := p1 + p2 + p3
		w.s.RunUntil(end)

		res.Figures = append(res.Figures, Figure{
			Title:  "Fig. 17: 5s-binned throughput while walking (WiFi outage in the middle phase)",
			XLabel: "time (s)",
			YLabel: "Mb/s",
			Curves: rateCurves(sampler),
		})

		phaseMean := func(s *metrics.Series, from, to sim.Time) float64 {
			r := s.Rate()
			var tot float64
			var n int
			for i := 0; i < r.Len(); i++ {
				if r.Times[i] > from && r.Times[i] <= to {
					tot += r.Vals[i] * 1500 * 8 / 1e6
					n++
				}
			}
			if n == 0 {
				return 0
			}
			return tot / float64(n)
		}
		table := Table{
			Title: "Multipath throughput by phase (Mb/s)",
			Cols:  []string{"phase", "multipath Mb/s", "of which 3G"},
		}
		bounds := []sim.Time{0, p1, p1 + p2, end}
		for i, name := range []string{"office (WiFi+3G)", "stairwell (3G only)", "new basestation"} {
			wifi := phaseMean(sampler.Series("mp-wifi"), bounds[i], bounds[i+1])
			g3 := phaseMean(sampler.Series("mp-3g"), bounds[i], bounds[i+1])
			table.Rows = append(table.Rows, []string{name, f2(wifi + g3), f2(g3)})
			res.Metrics[fmt.Sprintf("phase%d_mbps", i+1)] = wifi + g3
		}
		res.Tables = append(res.Tables, table)
		res.note("the connection survives the WiFi outage on 3G alone and immediately exploits the new basestation — the robustness story of §5")
	})
}
