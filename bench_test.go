// Package mptcp's top-level benchmarks regenerate every table and figure
// of the paper's evaluation, one benchmark per experiment (see DESIGN.md
// for the experiment index). Each iteration runs the full scenario at a
// reduced but meaningful scale and reports the headline metrics via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// reproduction harness. For paper-fidelity scale use:
//
//	go run ./cmd/mptcp-exp -run all -scale 1
package mptcp

import (
	"testing"

	"mptcp/internal/exp"
	"mptcp/internal/netsim"
	"mptcp/internal/sim"
)

// benchScale keeps a full `go test -bench=.` run in the minutes range;
// the shapes (orderings, ratios) are stable at this scale.
const benchScale = 0.15

// singleCell lists the experiments that are one trial cell (a single
// shared-state world): Parallelism cannot change their wall-clock, so
// only the serial mode is measured.
var singleCell = map[string]bool{
	"fig10-server-lb":      true,
	"table-server-poisson": true,
	"sec5-wired-sim":       true,
	"fig17-mobility":       true,
}

// benchExperiment measures each experiment twice: "serial" pins the cell
// runner to one worker, "parallel" lets it use GOMAXPROCS. The ns/op gap
// between the two sub-benchmarks is the wall-clock win of the parallel
// runner; the reported metrics are identical by construction (the
// determinism regression test in internal/exp asserts this).
func benchExperiment(b *testing.B, id string, keys ...string) {
	e, ok := exp.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	scale := benchScale
	if testing.Short() {
		// The -short bench smoke (CI) only checks that every experiment
		// still runs end to end; tiny scale keeps it in seconds.
		scale = 0.02
	}
	for _, mode := range []struct {
		name        string
		parallelism int
	}{
		{"serial", 1},
		{"parallel", 0}, // 0 = GOMAXPROCS
	} {
		if mode.parallelism == 0 && singleCell[id] {
			continue
		}
		b.Run(mode.name, func(b *testing.B) {
			var res *exp.Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res = e.Run(exp.Config{
					Seed:        int64(42 + i),
					Scale:       scale,
					Parallelism: mode.parallelism,
				})
			}
			for _, k := range keys {
				if v, ok := res.Metrics[k]; ok {
					b.ReportMetric(v, k)
				}
			}
		})
	}
}

// --- event engine hot paths ---
//
// The BenchmarkEngine* family measures the substrate everything above
// rides on. The packet-hop path and the per-ACK timer rearm are required
// to run at 0 allocs/op (asserted by TestPacketHopZeroAlloc in
// internal/netsim and TestPostZeroAlloc/TestTimerResetZeroAlloc in
// internal/sim); `bash bench/run.sh` measures the same ring with
// repetitions as netsim.hop_ns and netsim.hop_allocs.

// BenchmarkEnginePacketHop measures ns and allocations per packet-hop
// event through the full netsim path (queue admission, departure
// accounting, typed forward event, delivery), on the same
// netsim.BenchRing workload bench/ measures.
func BenchmarkEnginePacketHop(b *testing.B) {
	s := sim.New(1)
	netsim.NewBenchRing(s, 4, 256)
	b.ReportAllocs()
	b.ResetTimer()
	start := s.Steps()
	for s.Steps()-start < uint64(b.N) {
		s.RunUntil(s.Now() + sim.Second)
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Steps()-start)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineTimerRearm measures the per-ACK retransmission-timer
// path: one owned timer rearmed in place per operation.
func BenchmarkEngineTimerRearm(b *testing.B) {
	s := sim.New(1)
	tm := s.NewTimer(func() {})
	tm.Reset(sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(sim.Second)
		if i%64 == 0 {
			s.RunUntil(s.Now() + sim.Millisecond)
		}
	}
}

// --- §2 design-space scenarios ---

func BenchmarkFig2Triangle(b *testing.B) {
	benchExperiment(b, "fig2-triangle", "mptcp_mean_mbps", "ewtcp_mean_mbps", "coupled_mean_mbps")
}

func BenchmarkFig3Mesh(b *testing.B) {
	benchExperiment(b, "fig3-mesh", "mptcp_loss_spread", "ewtcp_loss_spread")
}

func BenchmarkSec23RTTMismatch(b *testing.B) {
	benchExperiment(b, "sec23-wifi3g-model", "mptcp_pktps", "ewtcp_pktps", "coupled_pktps", "tcp_wifi_pktps")
}

func BenchmarkFig5Trap(b *testing.B) {
	benchExperiment(b, "fig5-trap", "mptcp_phaseC_mbps", "coupled_phaseC_mbps")
}

// --- §3 multihomed server ---

func BenchmarkFig8Torus(b *testing.B) {
	benchExperiment(b, "fig8-torus", "mptcp_jain_c100", "ewtcp_jain_c100", "coupled_jain_c100")
}

func BenchmarkTableDynamic(b *testing.B) {
	benchExperiment(b, "table-dynamic", "mptcp_top_mbps", "ewtcp_top_mbps", "coupled_top_mbps")
}

func BenchmarkFig10ServerLB(b *testing.B) {
	benchExperiment(b, "fig10-server-lb", "mptcp_perflow_mbps", "imbalance_after")
}

func BenchmarkTableServerPoisson(b *testing.B) {
	benchExperiment(b, "table-server-poisson", "mptcp_mbps", "ewtcp_mbps", "coupled_mbps")
}

// --- §4 data centres ---

func BenchmarkTableFatTree(b *testing.B) {
	benchExperiment(b, "table-fattree", "MPTCP_TP1_mbps", "SINGLE-PATH_TP1_mbps")
}

func BenchmarkFig12PathCount(b *testing.B) {
	benchExperiment(b, "fig12-paths", "mptcp_paths_1", "mptcp_paths_4")
}

func BenchmarkFig13Distributions(b *testing.B) {
	benchExperiment(b, "fig13-dist", "MPTCP_jain", "SinglePath_jain")
}

func BenchmarkTableBCube(b *testing.B) {
	benchExperiment(b, "table-bcube", "MPTCP_TP1_mbps", "SINGLE-PATH_TP2_mbps")
}

// --- §5 wireless client ---

func BenchmarkTableWirelessStatic(b *testing.B) {
	benchExperiment(b, "table-wireless-static", "mptcp_mbps", "tcp_wifi_mbps", "tcp_3g_mbps")
}

func BenchmarkFig15WirelessCompete(b *testing.B) {
	benchExperiment(b, "fig15-wireless-compete", "mptcp_mp_mbps", "ewtcp_mp_mbps", "coupled_mp_mbps")
}

func BenchmarkSec5WiredSim(b *testing.B) {
	benchExperiment(b, "sec5-wired-sim", "s1_pktps", "s2_pktps", "m_pktps")
}

func BenchmarkFig16RTTSweep(b *testing.B) {
	benchExperiment(b, "fig16-rtt-sweep", "ratio_mean", "ratio_worst")
}

func BenchmarkFig17Mobility(b *testing.B) {
	benchExperiment(b, "fig17-mobility", "phase1_mbps", "phase2_mbps", "phase3_mbps")
}

// --- §6 protocol / ablations of DESIGN.md §4 ---

func BenchmarkSec6Protocol(b *testing.B) {
	benchExperiment(b, "ablation-reinject", "reinject_done", "noreinject_done")
}

func BenchmarkAblationCap(b *testing.B) {
	benchExperiment(b, "ablation-cap", "mptcp_pktps", "semicoupled_pktps")
}

func BenchmarkAblationPerAck(b *testing.B) {
	benchExperiment(b, "ablation-peracck", "peracck_pktps", "cached_pktps")
}

// --- cc registry tournament ---

func BenchmarkTournament(b *testing.B) {
	benchExperiment(b, "tournament",
		"mptcp_torus_mbps", "olia_torus_mbps", "balia_torus_mbps", "wvegas_torus_mbps",
		"mptcp_wifi3g_mbps", "olia_wifi3g_mbps")
}

// --- scenario-engine dynamics grid ---

func BenchmarkDynamics(b *testing.B) {
	benchExperiment(b, "dynamics",
		"mptcp_torus_flap_mbps", "mptcp_wifi3g_handover_mbps",
		"mptcp_dualhomed_churn_mbps", "olia_torus_ramp_mbps")
}

// --- packet-scheduler grid ---

func BenchmarkSchedGrid(b *testing.B) {
	benchExperiment(b, "schedgrid",
		"minrtt_mptcp_wifi3g_buf16_mbps", "minrtt+otr+pen_mptcp_wifi3g_buf16_mbps",
		"redundant_mptcp_torus_buf0_mbps", "blest_mptcp_dualhomed_buf64_mbps")
}
