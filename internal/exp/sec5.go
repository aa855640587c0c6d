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
	Register(&Experiment{
		ID:   "table-wireless-static",
		Ref:  "§5 static experiment",
		Desc: "Idle WiFi + 3G: single-path TCPs get ~14.4 and ~2.1 Mb/s; MPTCP gets roughly their sum (paper: 17.3).",
		Run:  runWirelessStatic,
	})
	Register(&Experiment{
		ID:   "fig15-wireless-compete",
		Ref:  "§5 Fig. 15",
		Desc: "WiFi + 3G with one competing TCP per path. Paper (Mb/s, multipath/TCP-WiFi/TCP-3G): EWTCP 1.66/3.11/1.20, COUPLED 1.41/3.49/0.97, MPTCP 2.21/2.56/0.65.",
		Run:  runFig15,
	})
	Register(&Experiment{
		ID:   "sec5-wired-sim",
		Ref:  "§5 simulation",
		Desc: "C1=250 pkt/s RTT 500 ms vs C2=500 pkt/s RTT 50 ms: paper gets S1 130, S2 315, M 305 pkt/s — M matches what a TCP would get at path 2's loss rate, not a naive 250.",
		Run:  runSec5Wired,
	})
	Register(&Experiment{
		ID:   "fig16-rtt-sweep",
		Ref:  "§5 Fig. 16",
		Desc: "Sweep RTT2 and C2 against a fixed 400 pkt/s/100 ms link 1: the ratio of M's throughput to the better of S1/S2 should stay near 1.",
		Run:  runFig16,
	})
	Register(&Experiment{
		ID:   "fig17-mobility",
		Ref:  "§5 Fig. 17 (mobile)",
		Desc: "Walk through the building: WiFi coverage drops on the stairwell, 3G congestion varies; MPTCP rebalances continuously and never stalls.",
		Run:  runFig17,
	})
}

// goodWireless reproduces the static experiment's radio conditions (lab
// bench next to the basestation).
func goodWireless() *topo.Wireless {
	return topo.NewWireless(topo.WirelessConfig{
		WiFiMbps: 16, WiFiDelay: 5 * sim.Millisecond, WiFiLoss: 0.004, WiFiBuf: 30,
		G3Mbps: 2.2, G3Delay: 30 * sim.Millisecond, G3Loss: 0.0005, G3Buf: 400,
	})
}

// busyWireless reproduces Fig. 15's conditions: heavy 2.4 GHz
// interference (the paper measured ~5 Mb/s of total WiFi capacity during
// those five minutes) and a slow, overbuffered 3G cell.
func busyWireless() *topo.Wireless {
	return topo.NewWireless(topo.WirelessConfig{
		WiFiMbps: 6, WiFiDelay: 8 * sim.Millisecond, WiFiLoss: 0.015, WiFiBuf: 20,
		G3Mbps: 2.0, G3Delay: 60 * sim.Millisecond, G3Loss: 0.0005, G3Buf: 300,
	})
}

func runWirelessStatic(cfg Config) *Result {
	cfg = cfg.norm()
	res := newResult("table-wireless-static")
	warm, end := cfg.dur(10*sim.Second), cfg.dur(110*sim.Second)

	flows := []struct {
		name   string
		metric string
		alg    func() core.Algorithm
		paths  func(*topo.Wireless) []transport.Path
	}{
		{"TCP-WiFi", "tcp_wifi_mbps", func() core.Algorithm { return core.Regular{} },
			func(wl *topo.Wireless) []transport.Path { return wl.Paths()[:1] }},
		{"TCP-3G", "tcp_3g_mbps", func() core.Algorithm { return core.Regular{} },
			func(wl *topo.Wireless) []transport.Path { return wl.Paths()[1:] }},
		{"MPTCP", "mptcp_mbps", func() core.Algorithm { return &core.MPTCP{} },
			func(wl *topo.Wireless) []transport.Path { return wl.Paths() }},
	}
	table := Table{
		Title: "Idle-path throughput (Mb/s); paper: TCP-WiFi 14.4, TCP-3G 2.1, MPTCP 17.3 (the sum)",
		Cols:  []string{"flow", "Mb/s"},
	}
	cells := RunCells(cfg, len(flows), func(cell Config, i int) CellResult {
		fl := flows[i]
		w := newWorld(cell.Seed)
		wl := goodWireless()
		c := transport.NewConn(w.n, transport.Config{Alg: fl.alg(), Paths: fl.paths(wl)})
		c.Start()
		r := w.measure([]*transport.Conn{c}, warm, end)[0]
		return CellResult{
			Row:     []string{fl.name, f2(r)},
			Metrics: map[string]float64{fl.metric: r},
		}
	})
	Collect(res, &table, cells)
	res.Tables = append(res.Tables, table)
	m := res.Metrics
	m["sum_ratio"] = m["mptcp_mbps"] / (m["tcp_wifi_mbps"] + m["tcp_3g_mbps"])
	res.note("§2.5: with no competing traffic both access links are fully utilised, so MPTCP's fairness goals permit the full sum")
	return res
}

func runFig15(cfg Config) *Result {
	cfg = cfg.norm()
	res := newResult("fig15-wireless-compete")
	warm, end := cfg.dur(30*sim.Second), cfg.dur(330*sim.Second)

	table := Table{
		Title: "Competing flows (Mb/s); paper: EWTCP 1.66/3.11/1.20, COUPLED 1.41/3.49/0.97, MPTCP 2.21/2.56/0.65 (multipath/TCP-WiFi/TCP-3G)",
		Cols:  []string{"algorithm", "multipath", "TCP-WiFi", "TCP-3G", "mp WiFi-share"},
	}
	cells := RunCells(cfg, len(algSet()), func(cell Config, i int) CellResult {
		alg := algSet()[i]
		w := newWorld(cell.Seed)
		sc := wifi3gScene(w, func() transport.Config { return transport.Config{Alg: freshAlg(alg)} })
		rates := w.measure(sc.all, warm, end)
		mp := sc.all[0]
		wifiShare := 0.0
		if d := mp.SubflowDelivered(0) + mp.SubflowDelivered(1); d > 0 {
			wifiShare = float64(mp.SubflowDelivered(0)) / float64(d)
		}
		return CellResult{
			Row: []string{alg.Name(), f2(rates[0]), f2(rates[1]), f2(rates[2]), f2(wifiShare)},
			Metrics: map[string]float64{
				metricName(alg, "mp_mbps"):      rates[0],
				metricName(alg, "tcpwifi_mbps"): rates[1],
				metricName(alg, "tcp3g_mbps"):   rates[2],
			},
		}
	})
	Collect(res, &table, cells)
	res.Tables = append(res.Tables, table)
	res.note("only MPTCP approaches the competing WiFi TCP's throughput; COUPLED hides on the 3G path, EWTCP splits half-and-half")
	return res
}

func runSec5Wired(cfg Config) *Result {
	cfg = cfg.norm()
	warm, end := cfg.dur(100*sim.Second), cfg.dur(500*sim.Second)

	// S1, S2 and M compete in one shared world: a single cell.
	return RunCells(cfg, 1, func(cell Config, _ int) *Result {
		res := newResult("sec5-wired-sim")
		w := newWorld(cell.Seed)
		l1 := topo.NewDuplexPkt("link1", 250, 250*sim.Millisecond, topo.BDPPacketsPkt(250, 500*sim.Millisecond))
		l2 := topo.NewDuplexPkt("link2", 500, 25*sim.Millisecond, topo.BDPPacketsPkt(500, 50*sim.Millisecond))
		s1 := transport.NewConn(w.n, transport.Config{Paths: []transport.Path{topo.PathThrough(l1)}})
		s2 := transport.NewConn(w.n, transport.Config{Paths: []transport.Path{topo.PathThrough(l2)}})
		m := transport.NewConn(w.n, transport.Config{
			Alg:   &core.MPTCP{},
			Paths: []transport.Path{topo.PathThrough(l1), topo.PathThrough(l2)},
		})
		s1.Start()
		s2.Start()
		m.Start()
		rates := w.measure([]*transport.Conn{s1, s2, m}, warm, end)
		toPkt := 1e6 / (8.0 * 1500)
		p1 := l1.AB.Stats.LossFraction()
		p2 := l2.AB.Stats.LossFraction()

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
		return res
	})[0]
}

func runFig16(cfg Config) *Result {
	cfg = cfg.norm()
	res := newResult("fig16-rtt-sweep")
	warm, end := cfg.dur(60*sim.Second), cfg.dur(360*sim.Second)
	rtts := []float64{12, 25, 50, 100, 200, 400, 800} // ms
	caps := []float64{400, 800, 1600, 3200}           // pkt/s

	fig := Figure{
		Title:  "Fig. 16: M's throughput / best(S1, S2) — one curve per C2",
		XLabel: "RTT2 (ms)",
		YLabel: "ratio",
	}
	// One cell per (C2, RTT2) pair.
	ratios := RunCells(cfg, len(caps)*len(rtts), func(cell Config, idx int) float64 {
		c2 := caps[idx/len(rtts)]
		rtt2 := rtts[idx%len(rtts)]
		w := newWorld(cell.Seed)
		l1 := topo.NewDuplexPkt("l1", 400, 50*sim.Millisecond, topo.BDPPacketsPkt(400, 100*sim.Millisecond))
		d2 := sim.Time(rtt2/2) * sim.Millisecond
		l2 := topo.NewDuplexPkt("l2", c2, d2, topo.BDPPacketsPkt(c2, sim.Time(rtt2)*sim.Millisecond))
		s1 := transport.NewConn(w.n, transport.Config{Paths: []transport.Path{topo.PathThrough(l1)}})
		s2 := transport.NewConn(w.n, transport.Config{Paths: []transport.Path{topo.PathThrough(l2)}})
		m := transport.NewConn(w.n, transport.Config{
			Alg:   &core.MPTCP{},
			Paths: []transport.Path{topo.PathThrough(l1), topo.PathThrough(l2)},
		})
		s1.Start()
		s2.Start()
		m.Start()
		rates := w.measure([]*transport.Conn{s1, s2, m}, warm, end)
		denom := rates[0]
		if rates[1] > denom {
			denom = rates[1]
		}
		if denom <= 0 {
			return 0
		}
		return rates[2] / denom
	})
	worst, best, sum, count := 2.0, 0.0, 0.0, 0.0
	for ci, c2 := range caps {
		curve := Curve{Name: "C2=" + f0(c2)}
		for ri, rtt2 := range rtts {
			ratio := ratios[ci*len(rtts)+ri]
			curve.Pts = append(curve.Pts, Point{X: rtt2, Y: ratio})
			if ratio < worst {
				worst = ratio
			}
			if ratio > best {
				best = ratio
			}
			sum += ratio
			count++
		}
		fig.Curves = append(fig.Curves, curve)
	}
	res.Figures = append(res.Figures, fig)
	res.Metrics["ratio_mean"] = sum / count
	res.Metrics["ratio_worst"] = worst
	res.Metrics["ratio_best"] = best
	res.note("paper: within a few percent of 1.0 except where link 2's bandwidth-delay product is very small (timeout-dominated)")
	return res
}

func runFig17(cfg Config) *Result {
	cfg = cfg.norm()
	// Timeline (scaled): phase 1 walk around the office, phase 2 the
	// stairwell (no WiFi, good 3G), phase 3 near a fresh basestation.
	p1 := cfg.dur(240 * sim.Second)
	p2 := cfg.dur(60 * sim.Second)
	p3 := cfg.dur(120 * sim.Second)

	// One continuous walk with shared link state: a single cell.
	return RunCells(cfg, 1, func(cell Config, _ int) *Result {
		res := newResult("fig17-mobility")
		w := newWorld(cell.Seed)
		wl := topo.NewWireless(topo.WirelessConfig{
			WiFiMbps: 10, WiFiDelay: 8 * sim.Millisecond, WiFiLoss: 0.01, WiFiBuf: 25,
			G3Mbps: 2.0, G3Delay: 50 * sim.Millisecond, G3Loss: 0.0005, G3Buf: 300,
		})
		tcpW := transport.NewConn(w.n, transport.Config{Paths: wl.Paths()[:1]})
		tcpG := transport.NewConn(w.n, transport.Config{Paths: wl.Paths()[1:]})
		mp := transport.NewConn(w.n, transport.Config{Alg: &core.MPTCP{}, Paths: wl.Paths()})
		tcpW.Start()
		tcpG.Start()
		w.s.After(cell.dur(10*sim.Second), mp.Start)

		// The walk, as a declarative scenario over [WiFi, 3G]: entering
		// the stairwell kills WiFi and improves 3G; afterwards a new
		// basestation appears with better radio. Rates are absolute Mb/s
		// (the paper's measured conditions), so the rewire onto
		// internal/scenario is bit-identical to the hand-coded closures
		// it replaced (pinned by TestScenarioRewireGolden).
		walk := scenario.Scenario{Name: "fig17-walk", Directives: []scenario.Directive{
			scenario.LinkDown{Link: 0, At: p1},
			scenario.RateRamp{Link: 1, Start: p1, To: 2.8, Abs: true},
			scenario.LinkUp{Link: 0, At: p1 + p2},
			scenario.RateRamp{Link: 0, Start: p1 + p2, To: 12, Abs: true},
			scenario.LossStep{Link: 0, At: p1 + p2, Loss: 0.004},
			scenario.RateRamp{Link: 1, Start: p1 + p2, To: 2.0, Abs: true},
		}}
		walk.MustInstall(&scenario.Env{Sim: w.s, Net: w.n, Links: []*topo.Duplex{wl.WiFi, wl.G3}})

		sampler := metrics.NewSampler(w.s, cell.dur(5*sim.Second))
		sampler.Probe("mp-wifi", func() float64 { return float64(mp.SubflowDelivered(0)) })
		sampler.Probe("mp-3g", func() float64 { return float64(mp.SubflowDelivered(1)) })
		sampler.Probe("tcp-wifi", func() float64 { return float64(tcpW.Delivered()) })
		sampler.Probe("tcp-3g", func() float64 { return float64(tcpG.Delivered()) })
		sampler.Start()
		end := p1 + p2 + p3
		w.s.RunUntil(end)

		fig := Figure{
			Title:  "Fig. 17: 5s-binned throughput while walking (WiFi outage in the middle phase)",
			XLabel: "time (s)",
			YLabel: "Mb/s",
		}
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
		for _, name := range sampler.Names() {
			r := sampler.Series(name).Rate()
			c := Curve{Name: name}
			for i := 0; i < r.Len(); i++ {
				c.Pts = append(c.Pts, Point{X: r.Times[i].Seconds(), Y: r.Vals[i] * 1500 * 8 / 1e6})
			}
			fig.Curves = append(fig.Curves, c)
		}
		res.Figures = append(res.Figures, fig)

		wifiSeries := sampler.Series("mp-wifi")
		g3Series := sampler.Series("mp-3g")
		mpPhase1 := phaseMean(wifiSeries, 0, p1) + phaseMean(g3Series, 0, p1)
		mpPhase2 := phaseMean(wifiSeries, p1, p1+p2) + phaseMean(g3Series, p1, p1+p2)
		mpPhase3 := phaseMean(wifiSeries, p1+p2, end) + phaseMean(g3Series, p1+p2, end)
		res.Tables = append(res.Tables, Table{
			Title: "Multipath throughput by phase (Mb/s)",
			Cols:  []string{"phase", "multipath Mb/s", "of which 3G"},
			Rows: [][]string{
				{"office (WiFi+3G)", f2(mpPhase1), f2(phaseMean(g3Series, 0, p1))},
				{"stairwell (3G only)", f2(mpPhase2), f2(phaseMean(g3Series, p1, p1+p2))},
				{"new basestation", f2(mpPhase3), f2(phaseMean(g3Series, p1+p2, end))},
			},
		})
		res.Metrics["phase1_mbps"] = mpPhase1
		res.Metrics["phase2_mbps"] = mpPhase2
		res.Metrics["phase3_mbps"] = mpPhase3
		res.note("the connection survives the WiFi outage on 3G alone and immediately exploits the new basestation — the robustness story of §5")
		return res
	})[0]
}
