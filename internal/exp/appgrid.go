package exp

import (
	"fmt"
	"strings"

	"mptcp/internal/metrics"
	"mptcp/internal/scenario"
	"mptcp/internal/sim"
	"mptcp/internal/transport"
	"mptcp/internal/workload"
)

func init() {
	register(&Experiment{
		ID:  "appgrid",
		Ref: "workload layer × §5–§6",
		Desc: "Application-workload grid: every internal/workload behaviour (rpc, web, video, mice) × {minrtt, blest, " +
			"bandit, minrtt+otr+pen} × {MPTCP, OLIA} × {WiFi+3G under handover, dual-homed server} with a 16-packet shared " +
			"receive buffer; per-cell page-load time, RPC tail latency, rebuffer ratio and mouse completion time.",
		Run: runAppGrid,
	})
}

// appSchedSpecs is the scheduler axis: plain minrtt (the baseline the
// §6 countermeasures exist to fix), BLEST's HOL-blocking avoidance, the
// offline-trained bandit policy, and minrtt with both §6
// countermeasures composed on.
func appSchedSpecs() []string { return []string{"minrtt", "blest", "bandit", "minrtt+otr+pen"} }

// appAlgs is the congestion-control axis — the paper's algorithm and
// its successor, enough to show workload results are not an artifact of
// one controller.
func appAlgs() []string { return []string{"MPTCP", "OLIA"} }

// appRecvBuf is the shared receive buffer (packets) of every
// application transfer: small enough that the overbuffered 3G subflow
// head-of-line-blocks a naive scheduler — the regime where scheduling
// decides application latency.
const appRecvBuf = 16

// appEnd is the (unscaled) issuing horizon of one cell.
const appEnd = 30 * sim.Second

// appTopos are the topology columns: scenes whose background TCPs
// compete with the application transfers. appScenario names the
// network-dynamics script installed over a column's links (absent: a
// static network); on wifi3g the handover script kills WiFi mid-run.
var (
	appTopos    = []string{"wifi3g", "dualhomed"}
	appScenario = map[string]string{"wifi3g": "handover"}
)

// appOut is one cell's measurements.
type appOut struct {
	stats      *workload.Stats
	incomplete int64 // transfers still in flight at the horizon
	pkts       int64 // data packets of completed transfers
	partial    int64 // packets delivered by in-flight transfers at the horizon
}

// appLatPrefix names each workload's headline latency metric in JSONL:
// the summary is the same streaming metrics.Summary, the semantics (and
// so the field name) differ per workload.
func appLatPrefix(wl string) string {
	switch wl {
	case "rpc":
		return "rpc"
	case "web":
		return "plt"
	case "video":
		return "chunk"
	case "mice":
		return "mice_fct"
	}
	return "lat"
}

func runAppGrid(cfg Config) *Result {
	g := grid{
		id:    "appgrid",
		title: "Application workloads: completed units (headline: latency-p95 s, or rebuffer ratio for video) per workload × scheduler × algorithm × topology",
		axes:  []axis{{"workload", workload.Names()}, {"scheduler", appSchedSpecs()}, {"algorithm", appAlgs()}, {"topology", appTopos}},
		dims:  Record{RecvBuf: appRecvBuf},
	}
	res := runGrid(cfg, g, appCell, func(res *Result, c *gridCell, out appOut) []string {
		wl, spec, alg, tp := c.vals[0], c.vals[1], c.vals[2], c.vals[3]
		mets := appMetrics(wl, out, c.dur(appEnd))
		key := fmt.Sprintf("%s_%s_%s_%s", wl, spec, strings.ToLower(alg), tp)
		res.Metrics[key+"_completed"] = float64(out.stats.Completed)
		text := f0(float64(out.stats.Completed))
		if name, v, ok := appHeadline(wl, mets); ok {
			res.Metrics[key+"_"+name] = v
			text += " (" + fmt.Sprintf("%.3g", v) + ")"
		}
		rec := g.record(c, mets)
		rec.Scenario = appScenario[tp]
		res.Records = append(res.Records, rec)
		return []string{text}
	})
	res.note("all transfers share a %d-packet receive buffer; wifi3g runs the handover script (WiFi dies at 0.4T), dualhomed is static; latency fields are omitted when a cell completed nothing", appRecvBuf)
	return res
}

// appHeadline picks a cell's single summary number for the table and
// res.Metrics: the rebuffer ratio for video, the latency p95 otherwise.
func appHeadline(wl string, mets map[string]float64) (name string, v float64, ok bool) {
	name = appLatPrefix(wl) + "_p95"
	if wl == "video" {
		name = "rebuffer_ratio"
	}
	v, ok = mets[name]
	return name, v, ok
}

// appMetrics assembles one cell's JSONL metrics. Latency quantiles are
// present only when the cell completed at least one unit — an absent
// field, not a fake zero, is the honest rendering of "nothing finished"
// (mirroring the fleet experiment's fct_* handling).
func appMetrics(wl string, c appOut, dur sim.Time) map[string]float64 {
	st := c.stats
	mets := map[string]float64{
		"issued":       float64(st.Issued),
		"completed":    float64(st.Completed),
		"incomplete":   float64(c.incomplete),
		"goodput_mbps": metrics.ThroughputMbps(c.pkts+c.partial, dur),
	}
	if st.Latency.N() > 0 {
		p := appLatPrefix(wl)
		mets[p+"_mean"] = st.Latency.Mean()
		mets[p+"_p50"] = st.Latency.P50()
		mets[p+"_p95"] = st.Latency.P95()
		mets[p+"_p99"] = st.Latency.P99()
	}
	switch wl {
	case "video":
		mets["play_s"] = st.PlaySec
		mets["stall_s"] = st.StallSec
		mets["rebuffers"] = float64(st.Rebuffers)
		if total := st.PlaySec + st.StallSec; total > 0 {
			mets["rebuffer_ratio"] = st.StallSec / total
		}
	case "mice":
		mets["elephant_mbps"] = metrics.ThroughputMbps(st.ElephantPkts, dur)
	}
	return mets
}

// appCell simulates one grid cell: build the scene's background flows,
// wire the workload's spawner through a ConnPool over the scene's
// multipath paths (every transfer gets the cell's scheduler, algorithm
// and shared receive buffer), install the column's scenario, install
// the workload, and run to the horizon. In-flight transfers at the
// horizon are accounted via the pool's live set — the same fix as the
// fleet's goodput undercount.
func appCell(c *gridCell) appOut {
	w := c.world()
	end := c.dur(appEnd)
	spec, alg := parseSchedSpec(c.vals[1]), c.vals[2]
	sc := scenes[c.vals[3]](w, nil)
	pool := transport.NewConnPool(w.n)

	var out appOut
	spawn := func(pkts int64, done func()) {
		cfg := mpConfig(spec, alg, appRecvBuf)
		cfg.Paths, cfg.Tracer, cfg.DataPackets = sc.paths, w.tr, pkts
		cfg.OnComplete = func(conn *transport.Conn) {
			out.pkts += pkts
			pool.Put(conn)
			done()
		}
		pool.Get(cfg).Start()
	}
	if scen := appScenario[c.vals[3]]; scen != "" {
		sc.script(w, scenario.MustBuild(scen, end))
	}
	st := workload.MustBuild(c.vals[0], end).Install(&workload.Env{Sim: w.s, Spawn: spawn, End: end})
	w.s.RunUntil(end)

	out.stats = st
	out.incomplete = pool.LiveCount()
	out.partial = pool.LiveDelivered()
	return out
}
