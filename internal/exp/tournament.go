package exp

import (
	"strings"

	"mptcp/internal/cc"
	"mptcp/internal/metrics"
	"mptcp/internal/sim"
)

func init() {
	register(&Experiment{
		ID:  "tournament",
		Ref: "cc registry × §3–§5",
		Desc: "Full algorithm grid (every registered algorithm, incl. OLIA/BALIA/WVEGAS) across torus, " +
			"dual-homed server, FatTree and WiFi+3G: per-(algorithm × topology) throughput and Jain fairness.",
		Run: runTournament,
	})
}

// tourTopos are the topology columns, each measured over the window
// (unscaled warm-up and end) of the §3–§5 experiment that owns it.
var tourTopos = []string{"torus", "dualhomed", "fattree", "wifi3g"}

var tourWindows = map[string][2]sim.Time{
	"torus":     {30 * sim.Second, 130 * sim.Second},
	"dualhomed": {20 * sim.Second, 120 * sim.Second},
	"fattree":   {4 * sim.Second, 10 * sim.Second},
	"wifi3g":    {30 * sim.Second, 230 * sim.Second},
}

// tourOut is one cell: the multipath aggregate in Mb/s (on the FatTree,
// the mean per-host rate) and Jain's fairness index over every flow in
// the scene, so an algorithm that starves the competing TCPs (or its own
// flows) scores low.
type tourOut struct{ mbps, jain float64 }

func runTournament(cfg Config) *Result {
	g := grid{
		id:    "tournament",
		title: "Tournament: total throughput Mb/s (Jain's fairness index) per algorithm × topology",
		axes:  []axis{{"algorithm", cc.Names()}, {"topology", tourTopos}},
	}
	res := runGrid(cfg, g, tourCell, func(res *Result, c *gridCell, out tourOut) []string {
		key := strings.ToLower(c.vals[0]) + "_" + c.vals[1]
		res.Metrics[key+"_mbps"] = out.mbps
		res.Metrics[key+"_jain"] = out.jain
		res.Records = append(res.Records, Record{
			Algorithm: c.vals[0],
			Topology:  c.vals[1],
			Metrics:   map[string]float64{"mbps": out.mbps, "jain": out.jain},
		})
		return []string{f1(out.mbps) + " (" + f2(out.jain) + ")"}
	})
	res.note("grid spans the paper's five algorithms plus the Linux-kernel family (OLIA, BALIA, delay-based WVEGAS); REGULAR runs uncoupled over the same path set — the §2.1 strawman")
	return res
}

func tourCell(c *gridCell) tourOut {
	w := c.world()
	alg, tp := c.vals[0], c.vals[1]
	warm, end := c.dur(tourWindows[tp][0]), c.dur(tourWindows[tp][1])
	if tp == "fattree" {
		// §4's FatTree under TP1, every flow using the algorithm under
		// test over the usual path count.
		sc, _, src := tp1Scene(c, w, 23, alg, dcPaths(c.Config))
		rates := w.measure(sc.all, warm, end)
		return tourOut{perHost(src, rates), metrics.JainIndex(rates)}
	}
	sc := scenes[tp](w, mpAlg(alg))
	rates := w.measure(sc.all, warm, end)
	return tourOut{metrics.Sum(rates[sc.lo:sc.hi]), metrics.JainIndex(rates)}
}
