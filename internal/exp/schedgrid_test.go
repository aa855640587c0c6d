package exp

import (
	"testing"

	"mptcp/internal/cc"
	"mptcp/internal/scenario"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/transport"
)

// TestSchedGridComplete runs the full scheduler grid at tiny scale and
// checks its shape: one Record per (scheduler spec × algorithm ×
// topology × recvbuf) cell, in deterministic cell order, with the
// countermeasure spec present and its activity counters populated only
// where they can fire.
func TestSchedGridComplete(t *testing.T) {
	e, ok := Get("schedgrid")
	if !ok {
		t.Fatal("schedgrid not registered")
	}
	res := e.Run(Config{Seed: 9, Scale: 0.02})
	specs, algs, bufs := schedSpecs(), cc.Names(), schedBufs
	want := len(specs) * len(algs) * 3 * len(bufs)
	if len(res.Records) != want {
		t.Fatalf("got %d records, want %d", len(res.Records), want)
	}
	idx := 0
	seenCM := false
	for _, spec := range specs {
		for _, alg := range algs {
			for _, tp := range []string{"torus", "dualhomed", "wifi3g"} {
				for _, buf := range bufs {
					r := res.Records[idx]
					idx++
					if r.Scheduler != spec || r.Algorithm != alg || r.Topology != tp || r.RecvBuf != buf {
						t.Fatalf("record %d = {%s %s %s %d}, want {%s %s %s %d}",
							idx-1, r.Scheduler, r.Algorithm, r.Topology, r.RecvBuf, spec, alg, tp, buf)
					}
					for _, k := range []string{"mbps", "jain", "opp_retx", "penalties"} {
						if _, ok := r.Metrics[k]; !ok {
							t.Errorf("record %d misses metric %s", idx-1, k)
						}
					}
					if spec == "minrtt+otr+pen" && (r.Metrics["opp_retx"] > 0 || r.Metrics["penalties"] > 0) {
						seenCM = true
					}
					if spec == "minrtt" && (r.Metrics["opp_retx"] > 0 || r.Metrics["penalties"] > 0) {
						t.Errorf("plain minrtt cell reports countermeasure activity: %+v", r)
					}
				}
			}
		}
	}
	if !seenCM {
		t.Error("no countermeasure cell reported any opp_retx/penalties activity")
	}
}

// TestCountermeasuresBeatPlainMinRTTOnWiFi3G is the acceptance pin for
// the §6 countermeasures: on the busy-wireless cell (lossy WiFi beside
// the deeply overbuffered 3G radio) with the tight 16-packet shared
// receive buffer, minrtt+otr+pen must clearly out-deliver plain minrtt
// under the identical cell seed. At this scale the measured gap is
// ~7× (0.3 vs 2.3 Mb/s); the assertion keeps a wide margin so only a
// real regression — not realisation noise — trips it.
func TestCountermeasuresBeatPlainMinRTTOnWiFi3G(t *testing.T) {
	cell := Config{Seed: CellSeed(42, 0), Scale: 0.1}.norm()
	plain := schedCell(newWorld(cell.Seed), cell, "wifi3g", "", parseSchedSpec("minrtt"), "MPTCP", 16)
	cured := schedCell(newWorld(cell.Seed), cell, "wifi3g", "", parseSchedSpec("minrtt+otr+pen"), "MPTCP", 16)
	if cured.oppRetx == 0 || cured.penalties == 0 {
		t.Errorf("countermeasures idle on the blocking cell: otr=%v pen=%v", cured.oppRetx, cured.penalties)
	}
	if plain.oppRetx != 0 || plain.penalties != 0 {
		t.Errorf("plain minrtt reports countermeasure activity: %+v", plain)
	}
	if cured.mbps < 2*plain.mbps {
		t.Errorf("minrtt+otr+pen = %.3f Mb/s vs plain minrtt = %.3f Mb/s; want ≥ 2× under the constrained buffer",
			cured.mbps, plain.mbps)
	}
}

// TestSchedulersSurviveHandover crosses the scheduler axis with the
// scenario engine: every registered scheduler (and the countermeasure
// spec) must keep an MPTCP flow alive through the handover script —
// WiFi dies, 3G congests, a new WiFi appears — on the busy-wireless
// topology, still delivering in the final tenth of the run.
func TestSchedulersSurviveHandover(t *testing.T) {
	end := 40 * sim.Second
	for _, spec := range schedSpecs() {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			w := newWorld(77)
			wl := busyWireless()
			ps := parseSchedSpec(spec)
			mp := transport.NewConn(w.n, transport.Config{
				Alg:       newAlg("MPTCP"),
				Sched:     ps.mk(),
				SchedOpts: ps.opts,
				Paths:     wl.Paths(),
			})
			mp.Start()
			env := &scenario.Env{Sim: w.s, Net: w.n, Links: []*topo.Duplex{wl.WiFi, wl.G3}}
			sc := scenario.MustBuild("handover", end)
			sc.MustInstall(env)
			w.s.RunUntil(end - end/10)
			tail := mp.Delivered()
			w.s.RunUntil(end)
			if got := mp.Delivered() - tail; got == 0 {
				t.Errorf("%s: no delivery in the final tenth after handover (total %d)", spec, mp.Delivered())
			}
		})
	}
}

// TestLearnedSchedulerBeatsMinRTTAndBLEST is the acceptance pin for the
// frozen bandit table: on two topology families of its training
// corpus — the torus with a mildly binding 64-packet buffer and the
// dual-homed server under the blocking-prone 16-packet buffer — the
// greedy policy must out-deliver both classical baselines, summed over
// four fixed grid seeds none of which training saw. Everything is
// deterministic, so a regression here means the table, the feature
// classifiers, or the inference path changed — not noise.
//
// Asserted at scale 0.1 to stay in the fast tier; the same 4-seed sums
// at scale 1 (paper fidelity) are torus/buf64 145.570 vs 139.239
// (minrtt) vs 139.862 (blest) Mb/s, and dualhomed/buf16 97.522 vs
// 93.859 vs 80.949 Mb/s — the ordering this test pins.
func TestLearnedSchedulerBeatsMinRTTAndBLEST(t *testing.T) {
	for _, c := range []struct {
		name, scene string
		buf         int64
	}{
		{"torus/buf64", "torus", 64},
		{"dualhomed/buf16", "dualhomed", 16},
	} {
		var bandit, minrtt, blest float64
		for k := 0; k < 4; k++ {
			cfg := Config{Seed: CellSeed(42, k), Scale: 0.1}
			cfg = cfg.norm()
			cfg.Seed = CellSeed(42, k)
			episode := func(spec string) float64 {
				return schedCell(newWorld(cfg.Seed), cfg, c.scene, "", parseSchedSpec(spec), "MPTCP", c.buf).mbps
			}
			bandit += episode("bandit")
			minrtt += episode("minrtt")
			blest += episode("blest")
		}
		t.Logf("%s: bandit %.3f, minrtt %.3f, blest %.3f Mb/s (4-seed sum)", c.name, bandit, minrtt, blest)
		if bandit <= minrtt {
			t.Errorf("%s: bandit %.3f does not beat minrtt %.3f", c.name, bandit, minrtt)
		}
		if bandit <= blest {
			t.Errorf("%s: bandit %.3f does not beat blest %.3f", c.name, bandit, blest)
		}
	}
}
