package exp

import (
	"fmt"
	"strings"

	"mptcp/internal/cc"
	"mptcp/internal/metrics"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
	"mptcp/internal/transport"
)

func init() {
	register(&Experiment{
		ID:  "schedgrid",
		Ref: "sched registry × §6",
		Desc: "Packet-scheduler grid: every scheduler spec (incl. minrtt+otr+pen, the §6 countermeasures) × every " +
			"algorithm × {torus, dual-homed server, WiFi+3G} × a shared-receive-buffer sweep; per-cell throughput, " +
			"fairness and countermeasure activity.",
		Run: runSchedGrid,
	})
}

// schedSpecs is the scheduler axis of the grid: every registered
// scheduler plus the paper's §6 configuration — minRTT with both
// receive-buffer countermeasures composed on. New registry entries
// append before the composed spec, so adding a scheduler file shifts
// only the countermeasure cells' seeds.
func schedSpecs() []string {
	return append(sched.Names(), "minrtt+otr+pen")
}

// schedBufs is the shared-receive-buffer axis, in packets: 0 is the
// unconstrained default (1<<20), 64 binds mildly on the overbuffered
// paths, 16 forces head-of-line blocking — the regime the §6
// countermeasures exist for.
var schedBufs = []int64{0, 64, 16}

var schedTopos = []string{"torus", "dualhomed", "wifi3g"}

// schedWarm/schedEnd are the (unscaled) measurement window of one cell:
// long enough for the blocking dynamics to reach steady state, short
// enough that the full grid stays affordable.
const (
	schedWarm = 5 * sim.Second
	schedEnd  = 45 * sim.Second
)

// schedSpec is a parsed scheduler column: the spec string plus a
// constructor (cells run concurrently, so every connection needs a
// fresh scheduler instance).
type schedSpec struct {
	spec string
	mk   func() sched.Scheduler
	opts sched.Options
}

func parseSchedSpec(spec string) schedSpec {
	_, opts, err := sched.Parse(spec)
	if err != nil {
		panic(err)
	}
	name := strings.SplitN(spec, "+", 2)[0]
	return schedSpec{
		spec: spec,
		mk:   func() sched.Scheduler { return sched.MustNew(name) },
		opts: opts,
	}
}

// mpConfig is the transport.Config of one multipath flow under a
// scheduler column: fresh controller and scheduler instances, the
// column's §6 options and the shared receive buffer. Paths are the
// scene's to fill in.
func mpConfig(spec schedSpec, alg string, recvBuf int64) transport.Config {
	return transport.Config{
		Alg:       newAlg(alg),
		Sched:     spec.mk(),
		SchedOpts: spec.opts,
		RecvBuf:   recvBuf,
	}
}

// schedOut is one cell's measurements.
type schedOut struct {
	mbps      float64 // multipath aggregate over [warm, end]
	jain      float64 // Jain's index over all flows in the cell
	oppRetx   float64 // opportunistic retransmissions (countermeasure cells)
	penalties float64 // penalization window halvings (countermeasure cells)
}

func runSchedGrid(cfg Config) *Result {
	g := grid{
		id:    "schedgrid",
		title: "Scheduler grid: multipath Mb/s [Jain] per scheduler × algorithm × recvbuf × topology",
		axes:  []axis{{"scheduler", schedSpecs()}, {"algorithm", cc.Names()}, {"topology", schedTopos}, {"recvbuf", axisVals(schedBufs)}},
	}
	res := runGrid(cfg, g, func(c *gridCell) schedOut {
		return schedCell(c.world(), c.Config, c.vals[2], parseSchedSpec(c.vals[0]), c.vals[1], schedBufs[c.at[3]])
	}, func(res *Result, c *gridCell, out schedOut) []string {
		key := fmt.Sprintf("%s_%s_%s_buf%s", c.vals[0], strings.ToLower(c.vals[1]), c.vals[2], c.vals[3])
		res.Metrics[key+"_mbps"] = out.mbps
		res.Metrics[key+"_jain"] = out.jain
		res.Records = append(res.Records, g.record(c, map[string]float64{
			"mbps":      out.mbps,
			"jain":      out.jain,
			"opp_retx":  out.oppRetx,
			"penalties": out.penalties,
		}))
		return []string{f1(out.mbps) + " [" + f2(out.jain) + "]"}
	})
	res.note("recvbuf 0 is unconstrained; 16 forces receive-buffer head-of-line blocking — the regime where minrtt+otr+pen (opportunistic retransmission + subflow penalization, §6) must beat plain minrtt")
	return res
}

// schedCell measures one scene with its multipath flows driven by the
// scheduler column, algorithm and shared receive buffer under test (the
// single-path TCPs keep stack defaults): the multipath aggregate, Jain's
// index over all flows and the multipath flows' countermeasure
// activity. The wifi3g scene's
// overbuffered 3G path (hundreds of packets of queue) is exactly the
// slow subflow that head-of-line-blocks a constrained shared buffer, so
// that column is where the §6 countermeasures earn their keep.
func schedCell(w *world, cell Config, scene string, spec schedSpec, alg string, recvBuf int64) schedOut {
	warm, end := cell.dur(schedWarm), cell.dur(schedEnd)
	sc := scenes[scene](w, func() transport.Config { return mpConfig(spec, alg, recvBuf) })
	rates := w.measure(sc.all, warm, end)
	out := schedOut{mbps: metrics.Sum(rates[sc.lo:sc.hi]), jain: metrics.JainIndex(rates)}
	for _, c := range sc.mp() {
		out.oppRetx += float64(c.OppRetx)
		out.penalties += float64(c.Penalties)
	}
	return out
}
