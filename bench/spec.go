package main

import "strings"

// metricSpec names one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none. BENCHMARK.json holds the same table, and
// bench_test.go fails if the two drift apart.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the repository sees, reported by
// every workload. model_result is the workload's headline result on the
// simulated clock (or, for the UDP stack, its wire efficiency); each
// workload defines it in its modelDesc.
//
// The three times are reported as the minimum over repetitions (but see
// workload.Lossy); everything else is a median. The time bounds are
// the widest the acceptance procedure allows, because this machine's
// speed drifts by 10-20 % for minutes at a time (README, "Noise") and no
// estimate taken inside one run can see past that.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"allocs_k", "kalloc", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"model_result", "model", "lower", 0.20},
}

func isTime(metric string) bool {
	return metric == "setup_s" || metric == "wall_s" || metric == "cpu_s"
}

// ccNames and schedNames are the registry entries measured per layer,
// lower-cased as they appear in metric names. They are listed here, not
// read from the registries, so the metric set is fixed by the benchmark
// rather than by the code under test.
var (
	ccNames    = []string{"regular", "ewtcp", "coupled", "semicoupled", "mptcp", "olia", "balia", "wvegas"}
	schedNames = []string{"firstfit", "minrtt", "roundrobin", "wcwnd", "redundant", "blest", "bandit"}
	appNames   = []string{"rpc", "web", "video", "mice"}
)

// perLayer lists every per-layer metric, grouped by the layer it
// measures. README.md maps each to the end-to-end metric and workload
// it is expected to move.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	add("lower", "ns", "sim.post_pop_ns", "sim.timer_rearm_ns", "sim.sharded_epoch_ns")
	add("lower", "allocs", "sim.post_pop_allocs", "sim.timer_rearm_allocs")
	add("higher", "x", "sim.sharded_speedup")
	add("lower", "ns", "netsim.hop_ns")
	add("lower", "allocs", "netsim.hop_allocs")
	add("lower", "ns", "transport.pkt_ns", "transport.pkt_self_ns", "transport.rbuf_pkt_ns",
		"transport.conn_ns", "transport.pool_cycle_ns")
	add("lower", "allocs", "transport.pkt_allocs", "transport.conn_allocs", "transport.pool_cycle_allocs")
	add("lower", "events", "transport.events_per_pkt")
	add("lower", "1/kpkt", "transport.oppretx_per_kpkt", "transport.penalties_per_kpkt")
	add("higher", "ratio", "transport.pool_reuse_ratio")
	for _, a := range ccNames {
		add("lower", "ns", "cc."+a+".increase_ns", "cc."+a+".decrease_ns")
	}
	for _, s := range schedNames {
		add("lower", "ns", "sched."+s+".pick_ns")
	}
	add("lower", "allocs", "sched.pick_allocs")
	add("lower", "ns", "metrics.summary_add_ns", "metrics.p2_add_ns", "metrics.summary_merge_ns")
	add("lower", "ns", "trace.off_ns", "trace.record_ns")
	add("higher", "lines/s", "trace.flush_lines_per_s")
	add("lower", "%", "trace.dynamics_overhead_pct")
	add("higher", "lines/s", "analyze.lines_per_s")
	for _, w := range appNames {
		add("lower", "s", "workload."+w+".cell_s")
	}
	add("lower", "ms", "topo.fattree_build_ms")
	add("higher", "x", "exp.parallel_speedup")
	add("lower", "us", "mptcpnet.seg_cpu_us", "mptcpnet.proto_seg_us")
	add("lower", "allocs", "mptcpnet.seg_allocs")
	add("lower", "B", "mptcpnet.seg_alloc_bytes")
	add("lower", "dgram/seg", "mptcpnet.datagrams_per_seg")
	add("lower", "count", "mptcpnet.goroutines_per_conn")
	add("lower", "s", "mptcpnet.write_block_s")
	add("lower", "ms", "mptcpnet.conn_setup_ms", "mptcpnet.close_ms")
	add("lower", "ns", "mptcpnet.sock_write_ns")
	add("lower", "%", "mptcpnet.sock_share_pct")
	add("lower", "ratio", "mptcpnet.retx_ratio", "mptcpnet.reinject_ratio", "mptcpnet.dup_data_ratio")
	add("lower", "ns", "chaos.path_write_ns")
	add("lower", "%", "trace_overhead_pct")
	return out
}

// workload is one set of generated inputs. Sim workloads run a
// registered experiment through exp.Get(id).Run with Parallelism=1 and
// Shards=1; UDP workloads run one mptcpnet connection with two
// subflows. The load is closed-loop in both: one run, or one transfer,
// at a time from a single process.
type workload struct {
	Name string
	Why  string
	// Sim workloads.
	ExpID     string
	Sched     string  // exp.Config.Sched filter
	App       string  // exp.Config.Workload filter
	Scale     float64 // exp.Config.Scale
	QuickMul  float64 // Scale multiplier in -quick mode
	ModelDesc string  // what model_result means on this workload
	// UDP workloads.
	UDP bool
	// Lossy puts the chaos.Path WiFi+3G emulation under the sockets. Wall
	// time is then set by path delay and the loss draw rather than by the
	// CPU: it varies both ways between repetitions, each of which draws
	// its own loss pattern, so wall_s is reported as their median. Every
	// other time is CPU time, to which a shared machine only ever adds,
	// and is reported as the minimum over repetitions.
	Lossy      bool
	Bytes      int
	QuickBytes int // 0 = skipped in -quick mode
}

const mib = 1 << 20

// Sizes are the issue's, cut so that one repetition takes about half a
// second on the two-core reference box. The machine's speed drifts by a
// quarter over tens of seconds (README, "Noise"), and the estimate that
// survives that is the fastest of many short repetitions, not the median
// of a few long ones; a run of some twenty seconds, which is what the
// acceptance procedure's time cap allows, fits about thirty of them.
var workloads = []workload{
	{
		Name: "torus-bulk",
		Why: "few long-lived flows in steady state (paper §3 torus): sim heap, netsim hop and the transport " +
			"per-packet path do nearly all the work; sched, pooling and metrics almost none",
		ExpID: "fig8-torus", Scale: 0.05, QuickMul: 0.4,
		ModelDesc: "1 / mptcp_jain_c100 (inverse Jain index of MPTCP flow rates at C=100 pkt/s; 1 = perfectly fair)",
	},
	{
		Name: "fleet-churn",
		Why: "thousands of short pooled connections (paper §3 server, scaled up): ConnPool recycle, timer " +
			"freelist, slow start, sim.Sharded barriers and metrics.Summary dominate; bulk steady state does not",
		ExpID: "fleet", Sched: "minrtt", Scale: 0.12, QuickMul: 0.2,
		ModelDesc: "mean over the 8 cc x minrtt records of fct_mean_s (simulated seconds)",
	},
	{
		Name: "app-rbuf",
		Why: "16-packet shared receive buffer under a handover script (paper §5-§6): sched.Pick for four " +
			"schedulers, the §6 countermeasures, the reorder buffer, scenario and the video workload do the work",
		ExpID: "appgrid", App: "video", Scale: 0.2, QuickMul: 0.25,
		ModelDesc: "mean rebuffer_ratio over the 16 video cells (4 schedulers x 2 cc x 2 topologies)",
	},
	{
		Name: "udp-raw",
		Why: "CPU-bound real stack, no loss, over the host loopback: sockets, wire marshal and CRC, the segs map, " +
			"two goroutines per subflow; the simulator layers are bypassed entirely",
		UDP: true, Bytes: 64 * mib, QuickBytes: 2 * mib,
		ModelDesc: "data datagrams put on the wire per segment delivered (1 = no retransmission)",
	},
	{
		Name: "udp-lossy",
		Why: "same stack over chaos.Path WiFi+3G emulation with loss: wall time is set by fast retransmit, RTO " +
			"backoff, reinjection and the scheduler, not by CPU",
		UDP: true, Lossy: true, Bytes: 256 << 10,
		ModelDesc: "data datagrams put on the wire per segment delivered (1 = no retransmission)",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}
