package exp

import (
	"strings"

	"mptcp/internal/cc"
	"mptcp/internal/metrics"
	"mptcp/internal/registry"
	"mptcp/internal/scenario"
	"mptcp/internal/sim"
)

func init() {
	register(&Experiment{
		ID:  "dynamics",
		Ref: "scenario engine × §3/§5",
		Desc: "Full algorithm grid under time-varying networks: every scenario script (flap, ramp, churn, " +
			"handover) against torus, dual-homed server and WiFi+3G; per-cell throughput, recovery rate and fairness.",
		Run: runDynamics,
	})
}

var dynTopos = []string{"torus", "dualhomed", "wifi3g"}

// dynWarm/dynEnd are the (unscaled) measurement window of one dynamics
// cell; every scenario script is built with T = dynEnd so disturbances
// land inside the window and the final tenth is post-disturbance.
const (
	dynWarm = 10 * sim.Second
	dynEnd  = 60 * sim.Second
)

// dynOut is one cell's measurements.
type dynOut struct {
	mbps     float64 // multipath aggregate over [warm, end]
	recovery float64 // multipath aggregate over the final tenth of the run
	jain     float64 // Jain's index over all persistent flows
	churn    float64 // flows spawned by the scenario (churn script only)
}

func runDynamics(cfg Config) *Result {
	g := grid{
		id:    "dynamics",
		title: "Dynamics: multipath Mb/s over the run (Mb/s in the post-disturbance tail) [Jain] per algorithm × scenario × topology",
		axes:  []axis{{"algorithm", cc.Names()}, {"topology", dynTopos}, {"scenario", scenario.Names()}},
	}
	res := runGrid(cfg, g, dynCell, func(res *Result, c *gridCell, out dynOut) []string {
		key := strings.ToLower(c.vals[0]) + "_" + c.vals[1] + "_" + c.vals[2]
		res.Metrics[key+"_mbps"] = out.mbps
		res.Metrics[key+"_recovery_mbps"] = out.recovery
		res.Metrics[key+"_jain"] = out.jain
		res.Records = append(res.Records, g.record(c, map[string]float64{
			"mbps":           out.mbps,
			"recovery_mbps":  out.recovery,
			"jain":           out.jain,
			"churn_arrivals": out.churn,
		}))
		return []string{f1(out.mbps) + " (" + f1(out.recovery) + ") [" + f2(out.jain) + "]"}
	})
	res.note("every algorithm must survive flaps, ramps, churn and handover on every topology; recovery is the final tenth of the run, after the last disturbance")
	return res
}

// dynCell simulates one grid cell: build the scene with every multipath
// flow driven by the cell's algorithm, install the scenario script, then
// measure over [warm, end] with a post-disturbance recovery window over
// the final tenth.
func dynCell(c *gridCell) dynOut {
	w := c.world()
	warm, end := c.dur(dynWarm), c.dur(dynEnd)
	sc := scenes[c.vals[1]](w, mpAlg(c.vals[0]))
	env := sc.script(w, registry.Must(scenario.Build(c.vals[2], end)))

	w.s.RunUntil(warm)
	base := snapshot(sc.all)
	recStart := end - end/10
	w.s.RunUntil(recStart)
	recBase := snapshot(sc.all)
	w.s.RunUntil(end)

	rates := ratesSince(sc.all, base, end-warm)
	recRates := ratesSince(sc.all, recBase, end-recStart)
	return dynOut{
		mbps:     metrics.Sum(rates[sc.lo:sc.hi]),
		recovery: metrics.Sum(recRates[sc.lo:sc.hi]),
		jain:     metrics.JainIndex(rates),
		churn:    float64(env.ChurnArrivals),
	}
}
