package exp

import (
	"math/rand"
	"sort"
	"strings"

	"mptcp/internal/metrics"
	"mptcp/internal/netsim"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
)

func init() {
	register(&Experiment{
		ID:   "table-fattree",
		Ref:  "§4 FatTree table",
		Desc: "FatTree, TP1/TP2/TP3 per-host throughput. Paper (Mb/s): single-path 51/94/60, EWTCP 92/92.5/99, MPTCP 95/97/99.",
		Run:  runTableFatTree,
	})
	register(&Experiment{
		ID:   "fig12-paths",
		Ref:  "§4 Fig. 12",
		Desc: "FatTree TP1: MPTCP throughput (% of optimal) vs number of paths used; ~8 paths reach ~90% where single-path TCP sits near 50%.",
		Run:  runFig12,
	})
	register(&Experiment{
		ID:   "fig13-dist",
		Ref:  "§4 Fig. 13",
		Desc: "FatTree TP1 distributions: per-flow throughput rank plot and per-link loss-rate rank plots (core vs access links).",
		Run:  runFig13,
	})
	register(&Experiment{
		ID:   "table-bcube",
		Ref:  "§4 BCube table",
		Desc: "BCube, TP1/TP2/TP3 per-host throughput. Paper (Mb/s): single-path 64.5/297/78, EWTCP 84/229/139, MPTCP 86.5/272/135.",
		Run:  runTableBCube,
	})
}

// dcSizes picks the data-centre scale: the paper's sizes at Scale >= 0.5,
// reduced fabrics below that (for tests and quick benches).
func dcSizes(cfg Config) (ftK, bcN, bcK int) {
	if cfg.norm().Scale >= 0.5 {
		return 8, 5, 2
	}
	return 4, 3, 2
}

// dcWarm/dcEnd are the (unscaled) measurement window of every §4 cell.
const (
	dcWarm = 4 * sim.Second
	dcEnd  = 10 * sim.Second
)

// perHost sums flow rates by source host and returns the mean across
// hosts that have at least one flow. The final sum runs in sorted host
// order: float addition is not associative, so summing in Go's random
// map-iteration order would wobble the metric's last bits from run to
// run and break the bit-identical determinism guarantee.
func perHost(src []int, rates []float64) float64 {
	byHost := map[int]float64{}
	for i, s := range src {
		byHost[s] += rates[i]
	}
	if len(byHost) == 0 {
		return 0
	}
	hosts := make([]int, 0, len(byHost))
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	var t float64
	for _, h := range hosts {
		t += byHost[h]
	}
	return t / float64(len(byHost))
}

// dcRows are the rows of the §4 tables: the single-path baseline (one
// ECMP path per flow) and the two multipath algorithms.
var dcRows = []string{"SINGLE-PATH", "EWTCP", "MPTCP"}

// dcTable runs one §4 table — dcRows × the traffic patterns TP1/TP2/TP3
// — on the fabric build returns (a fresh one per cell), multipath flows
// using nPaths paths. TP2's destination choice is topology-specific, so
// build returns it too. The workload rng is seeded base+salt — the run's base seed, not
// the cell's: every algorithm must be measured on the identical traffic
// matrix and path choices for the table to compare algorithms.
func dcTable(cfg Config, id, title string, salt int64, nPaths int,
	build func() (dcFabric, func(*rand.Rand) (src, dst []int))) *Result {
	g := grid{
		id:    id,
		title: title,
		axes:  []axis{{"algorithm", dcRows}, {"pattern", []string{"TP1", "TP2", "TP3"}}},
		pivot: "pattern",
	}
	return runGrid(cfg, g, func(c *gridCell) float64 {
		w := c.world()
		rng := rand.New(rand.NewSource(c.base + salt))
		fab, tp2 := build()
		var src, dst []int
		switch c.vals[1] {
		case "TP1":
			src, dst = tp1(rng, fab.NumHosts())
		case "TP2":
			src, dst = tp2(rng)
		case "TP3":
			src, dst = sparseFlows(rng, fab.NumHosts(), 0.3)
		}
		paths := nPaths
		if c.vals[0] == "SINGLE-PATH" {
			paths = 0
		}
		sc := startFlows(w, rng, fab, src, dst, c.vals[0], paths)
		return perHost(src, w.measure(sc.all, c.dur(dcWarm), c.dur(dcEnd)))
	}, func(res *Result, c *gridCell, v float64) []string {
		res.Metrics[c.vals[0]+"_"+c.vals[1]+"_mbps"] = v
		return []string{f1(v)}
	})
}

// sparseFlows draws §4's TP3: a fraction frac of the n hosts each open
// one flow to a uniformly random other host.
func sparseFlows(rng *rand.Rand, n int, frac float64) (src, dst []int) {
	hosts := rng.Perm(n)
	k := int(float64(n) * frac)
	for i := 0; i < k; i++ {
		s := hosts[i]
		d := rng.Intn(n)
		for d == s {
			d = rng.Intn(n)
		}
		src = append(src, s)
		dst = append(dst, d)
	}
	return src, dst
}

// oneToMany draws TP2 on a fabric without structural neighbours (the
// FatTree): every host opens fanout flows to distinct random other
// hosts.
func oneToMany(rng *rand.Rand, n, fanout int) (src, dst []int) {
	for s := 0; s < n; s++ {
		seen := map[int]bool{s: true}
		for len(seen) < fanout+1 {
			d := rng.Intn(n)
			if seen[d] {
				continue
			}
			seen[d] = true
			src = append(src, s)
			dst = append(dst, d)
		}
	}
	return src, dst
}

func runTableFatTree(cfg Config) *Result {
	res := dcTable(cfg, "table-fattree",
		"FatTree per-host throughput (Mb/s); paper: single 51/94/60, EWTCP 92/92.5/99, MPTCP 95/97/99", 7, 8,
		func() (dcFabric, func(*rand.Rand) (src, dst []int)) {
			ft := fatTree(cfg)
			return ft, func(rng *rand.Rand) (src, dst []int) { return oneToMany(rng, ft.NumHosts(), 12) }
		})
	if k, _, _ := dcSizes(cfg); k != 8 {
		res.note("scaled-down fabric (k=%d); run with -scale 1 for the paper's 128-host FatTree", k)
	}
	return res
}

// tp1Scene is the world fig12, fig13 and the tournament's FatTree column
// share: the FatTree under TP1, every flow over paths paths under alg (0:
// one ECMP path each). As in dcTable the workload rng is seeded from the
// run's base seed, so all cells of an experiment race on the identical
// permutation and path choices.
func tp1Scene(c *gridCell, w *world, salt int64, alg string, paths int) (sc *scene, ft *topo.FatTree, src []int) {
	rng := rand.New(rand.NewSource(c.base + salt))
	ft = fatTree(c.Config)
	src, dst := tp1(rng, ft.NumHosts())
	return startFlows(w, rng, ft, src, dst, alg, paths), ft, src
}

func runFig12(cfg Config) *Result {
	g := grid{id: "fig12-paths", axes: []axis{{"paths", axisVals([]int{1, 2, 3, 4, 5, 6, 7, 8}[:dcPaths(cfg)])}}}
	res := newResult(g.id)
	cells, pcts := sweep(res, cfg, g, func(c *gridCell) float64 {
		w := c.world()
		sc, _, src := tp1Scene(c, w, 11, "MPTCP", c.at[0]+1)
		rates := w.measure(sc.all, c.dur(dcWarm), c.dur(dcEnd))
		return perHost(src, rates) / 100 * 100 // NIC optimal is 100 Mb/s
	})

	mp := Curve{Name: "MPTCP"}
	tcp := Curve{Name: "TCP (ECMP), for reference"}
	for i, c := range cells {
		m := float64(c.at[0] + 1)
		mp.Pts = append(mp.Pts, Point{X: m, Y: pcts[i]})
		tcp.Pts = append(tcp.Pts, Point{X: m, Y: pcts[0]})
		res.Metrics["mptcp_paths_"+c.vals[0]] = pcts[i]
	}
	res.Figures = append(res.Figures, Figure{
		Title:  "Fig. 12: throughput (% of optimal) vs paths used, FatTree TP1",
		XLabel: "paths used",
		YLabel: "% of optimal",
		Curves: []Curve{tcp, mp},
	})
	res.note("the paper needs ~8 paths for ~90%% utilisation on TP1; one path (≈ECMP) sits near 50%%")
	return res
}

func runFig13(cfg Config) *Result {
	// The §4 tables' three rows, named as the figure's legend names them.
	g := grid{id: "fig13-dist", axes: []axis{{"algorithm", []string{"Single Path", "EWTCP", "MPTCP"}}}}
	res := newResult(g.id)

	type out struct {
		thr       Curve
		loss      []Curve
		jain, p10 float64
	}
	cells, outs := sweep(res, cfg, g, func(c *gridCell) out {
		w := c.world()
		name, paths := c.vals[0], 8
		if name == "Single Path" {
			paths = 0
		}
		sc, ft, _ := tp1Scene(c, w, 13, name, paths)
		rates := w.measure(sc.all, c.dur(dcWarm), c.dur(dcEnd))

		o := out{
			thr:  Curve{Name: name},
			jain: metrics.JainIndex(rates),
			p10:  metrics.Percentile(rates, 10),
		}
		for i, v := range metrics.Rank(rates) {
			o.thr.Pts = append(o.thr.Pts, Point{X: float64(i + 1), Y: v})
		}
		for _, grp := range []struct {
			label string
			links []*netsim.Link
		}{{"core", ft.CoreLinks()}, {"access", ft.AccessLinks()}} {
			var loss []float64
			for _, l := range grp.links {
				loss = append(loss, l.Stats.LossFraction()*100)
			}
			lc := Curve{Name: name + "/" + grp.label}
			for i, v := range metrics.Rank(loss) {
				if v == 0 && i > 4 {
					break // tail of lossless links adds nothing
				}
				lc.Pts = append(lc.Pts, Point{X: float64(i + 1), Y: v})
			}
			o.loss = append(o.loss, lc)
		}
		return o
	})

	figT := Figure{
		Title:  "Fig. 13 (left): per-flow throughput, ranked",
		XLabel: "rank of flow",
		YLabel: "Mb/s",
	}
	figL := Figure{
		Title:  "Fig. 13 (right): per-link loss rate, ranked",
		XLabel: "rank of link",
		YLabel: "loss %",
	}
	for i, c := range cells {
		figT.Curves = append(figT.Curves, outs[i].thr)
		figL.Curves = append(figL.Curves, outs[i].loss...)
		// Metric keys must be whitespace-free (testing.B.ReportMetric).
		key := strings.ReplaceAll(c.vals[0], " ", "")
		res.Metrics[key+"_jain"] = outs[i].jain
		res.Metrics[key+"_p10_mbps"] = outs[i].p10
	}
	// Keep rank curves readable: subsample to at most 32 points each.
	for _, f := range []*Figure{&figT, &figL} {
		for ci := range f.Curves {
			f.Curves[ci].Pts = subsample(f.Curves[ci].Pts, 32)
		}
	}
	res.Figures = append(res.Figures, figT, figL)
	res.note("MPTCP allocates throughput more fairly than EWTCP and far more than single-path (compare Jain metrics), and keeps core-link losses balanced")
	return res
}

func subsample(pts []Point, max int) []Point {
	if len(pts) <= max {
		return pts
	}
	out := make([]Point, 0, max)
	step := float64(len(pts)-1) / float64(max-1)
	for i := 0; i < max; i++ {
		out = append(out, pts[int(float64(i)*step)])
	}
	return out
}

func runTableBCube(cfg Config) *Result {
	_, bn, bk := dcSizes(cfg)
	res := dcTable(cfg, "table-bcube",
		"BCube per-host throughput (Mb/s); paper: single 64.5/297/78, EWTCP 84/229/139, MPTCP 86.5/272/135", 17, 3,
		func() (dcFabric, func(*rand.Rand) (src, dst []int)) {
			bc := topo.NewBCube(topo.BCubeConfig{N: bn, K: bk})
			// TP2 on BCube: every host replicates to its one-hop
			// neighbours at all levels (the paper's "replicas onto
			// hosts physically close in the network").
			return bc, func(*rand.Rand) (src, dst []int) {
				for h := 0; h < bc.NumHosts(); h++ {
					for l := 0; l < bc.Levels(); l++ {
						for _, nb := range bc.Neighbors(h, l) {
							src = append(src, h)
							dst = append(dst, nb)
						}
					}
				}
				return src, dst
			}
		})
	res.note("three phenomena (§4): multipath exploits all 3 NICs (TP3); EWTCP ignores congestion differences on unequal-hop paths (TP2); single shortest paths beat multipath when the short paths are also least congested (TP2)")
	if bn != 5 {
		res.note("scaled-down BCube(%d,%d); run with -scale 1 for the paper's 125-host BCube(5,2)", bn, bk)
	}
	return res
}
