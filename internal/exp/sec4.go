package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"mptcp/internal/core"
	"mptcp/internal/metrics"
	"mptcp/internal/model"
	"mptcp/internal/netsim"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/traffic"
	"mptcp/internal/transport"
)

func init() {
	Register(&Experiment{
		ID:   "table-fattree",
		Ref:  "§4 FatTree table",
		Desc: "FatTree, TP1/TP2/TP3 per-host throughput. Paper (Mb/s): single-path 51/94/60, EWTCP 92/92.5/99, MPTCP 95/97/99.",
		Run:  runTableFatTree,
	})
	Register(&Experiment{
		ID:   "fig12-paths",
		Ref:  "§4 Fig. 12",
		Desc: "FatTree TP1: MPTCP throughput (% of optimal) vs number of paths used; ~8 paths reach ~90% where single-path TCP sits near 50%.",
		Run:  runFig12,
	})
	Register(&Experiment{
		ID:   "fig13-dist",
		Ref:  "§4 Fig. 13",
		Desc: "FatTree TP1 distributions: per-flow throughput rank plot and per-link loss-rate rank plots (core vs access links).",
		Run:  runFig13,
	})
	Register(&Experiment{
		ID:   "table-bcube",
		Ref:  "§4 BCube table",
		Desc: "BCube, TP1/TP2/TP3 per-host throughput. Paper (Mb/s): single-path 64.5/297/78, EWTCP 84/229/139, MPTCP 86.5/272/135.",
		Run:  runTableBCube,
	})
}

// dcSizes picks the data-centre scale: the paper's sizes at Scale >= 0.5,
// reduced fabrics below that (for tests and quick benches).
func dcSizes(cfg Config) (ftK, bcN, bcK int) {
	if cfg.Scale >= 0.5 {
		return 8, 5, 2
	}
	return 4, 3, 2
}

// dcFlows builds the connections for a (src,dst) flow list.
type pathsFn func(rng *rand.Rand, src, dst int) []transport.Path

func startFlows(w *world, rng *rand.Rand, src, dst []int, alg core.Algorithm, paths pathsFn) []*transport.Conn {
	conns := make([]*transport.Conn, 0, len(src))
	for i := range src {
		p := paths(rng, src[i], dst[i])
		if len(p) == 0 {
			continue
		}
		var a core.Algorithm
		if len(p) == 1 {
			a = core.Regular{}
		} else {
			a = freshAlg(alg)
		}
		c := transport.NewConn(w.n, transport.Config{Alg: a, Paths: p, Tracer: w.tr})
		// Desynchronise starts across a few milliseconds.
		w.s.At(sim.Time(rng.Int63n(int64(5*sim.Millisecond))), c.Start)
		conns = append(conns, c)
	}
	return conns
}

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

// dcPatterns returns the three traffic patterns of §4 for n hosts.
// TP2's destination choice is topology-specific, so it is passed in.
func dcPatterns(rng *rand.Rand, n int, tp2 func() (src, dst []int)) map[string]func() (src, dst []int) {
	return map[string]func() (src, dst []int){
		"TP1": func() (src, dst []int) {
			d := traffic.Permutation(rng, n)
			for s, t := range d {
				src = append(src, s)
				dst = append(dst, t)
			}
			return src, dst
		},
		"TP2": tp2,
		"TP3": func() (src, dst []int) { return traffic.SparseFlows(rng, n, 0.3) },
	}
}

// dcAlgCase is one row of the §4 tables.
type dcAlgCase struct {
	name  string
	alg   core.Algorithm
	paths int
}

var dcTPNames = []string{"TP1", "TP2", "TP3"}

func runTableFatTree(cfg Config) *Result {
	cfg = cfg.norm()
	res := newResult("table-fattree")
	k, _, _ := dcSizes(cfg)
	warm, end := cfg.dur(4*sim.Second), cfg.dur(10*sim.Second)

	table := Table{
		Title: "FatTree per-host throughput (Mb/s); paper: single 51/94/60, EWTCP 92/92.5/99, MPTCP 95/97/99",
		Cols:  []string{"algorithm", "TP1", "TP2", "TP3"},
	}
	cases := []dcAlgCase{
		{"SINGLE-PATH", core.Regular{}, 1},
		{"EWTCP", core.EWTCP{}, 8},
		{"MPTCP", &core.MPTCP{}, 8},
	}
	// One cell per (algorithm case, traffic pattern) pair.
	vals := RunCells(cfg, len(cases)*len(dcTPNames), func(cell Config, idx int) float64 {
		tc := cases[idx/len(dcTPNames)]
		tpName := dcTPNames[idx%len(dcTPNames)]
		w := newWorld(cell.Seed)
		// Workload randomness derives from the base seed, not the cell
		// seed: every algorithm must be measured on the identical
		// traffic matrix for the table to compare algorithms.
		rng := rand.New(rand.NewSource(cfg.Seed + 7))
		ft := topo.NewFatTree(topo.FatTreeConfig{K: k})
		n := ft.NumHosts()
		tp2 := func() (src, dst []int) { return traffic.OneToMany(rng, n, 12) }
		src, dst := dcPatterns(rng, n, tp2)[tpName]()
		pf := func(rng *rand.Rand, s, d int) []transport.Path {
			if tc.paths == 1 {
				return []transport.Path{ft.ECMPPath(rng, s, d)}
			}
			return ft.Paths(rng, s, d, tc.paths)
		}
		conns := startFlows(w, rng, src, dst, freshAlg(tc.alg), pf)
		rates := w.measure(conns, warm, end)
		return perHost(src, rates)
	})
	for ci, tc := range cases {
		row := []string{tc.name}
		for ti, tpName := range dcTPNames {
			v := vals[ci*len(dcTPNames)+ti]
			row = append(row, f1(v))
			res.Metrics[tc.name+"_"+tpName+"_mbps"] = v
		}
		table.Rows = append(table.Rows, row)
	}
	res.Tables = append(res.Tables, table)
	if k != 8 {
		res.note("scaled-down fabric (k=%d); run with -scale 1 for the paper's 128-host FatTree", k)
	}
	return res
}

func runFig12(cfg Config) *Result {
	cfg = cfg.norm()
	res := newResult("fig12-paths")
	k, _, _ := dcSizes(cfg)
	warm, end := cfg.dur(4*sim.Second), cfg.dur(10*sim.Second)
	maxPaths := 8
	if k < 8 {
		maxPaths = 4
	}

	fig := Figure{
		Title:  "Fig. 12: throughput (% of optimal) vs paths used, FatTree TP1",
		XLabel: "paths used",
		YLabel: "% of optimal",
	}
	// One cell per path count m = 1..maxPaths.
	pcts := RunCells(cfg, maxPaths, func(cell Config, idx int) float64 {
		m := idx + 1
		w := newWorld(cell.Seed)
		// Base-seed workload: every path count runs the same permutation
		// (and the m=1 TCP reference stays comparable across the curve).
		rng := rand.New(rand.NewSource(cfg.Seed + 11))
		ft := topo.NewFatTree(topo.FatTreeConfig{K: k})
		d := traffic.Permutation(rng, ft.NumHosts())
		var src, dst []int
		for s, t := range d {
			src = append(src, s)
			dst = append(dst, t)
		}
		pf := func(rng *rand.Rand, s, dd int) []transport.Path { return ft.Paths(rng, s, dd, m) }
		conns := startFlows(w, rng, src, dst, &core.MPTCP{}, pf)
		rates := w.measure(conns, warm, end)
		return perHost(src, rates) / 100 * 100 // NIC optimal is 100 Mb/s
	})
	mp := Curve{Name: "MPTCP"}
	tcp := Curve{Name: "TCP (ECMP), for reference"}
	for i, pct := range pcts {
		m := i + 1
		mp.Pts = append(mp.Pts, Point{X: float64(m), Y: pct})
		tcp.Pts = append(tcp.Pts, Point{X: float64(m), Y: pcts[0]})
		res.Metrics[fmtInt("mptcp_paths", m)] = pct
	}
	fig.Curves = append(fig.Curves, tcp, mp)
	res.Figures = append(res.Figures, fig)
	res.note("the paper needs ~8 paths for ~90%% utilisation on TP1; one path (≈ECMP) sits near 50%%")
	return res
}

func fmtInt(prefix string, v int) string { return fmt.Sprintf("%s_%d", prefix, v) }

func runFig13(cfg Config) *Result {
	cfg = cfg.norm()
	res := newResult("fig13-dist")
	k, _, _ := dcSizes(cfg)
	warm, end := cfg.dur(4*sim.Second), cfg.dur(10*sim.Second)

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
	cases := []dcAlgCase{
		{"Single Path", core.Regular{}, 1},
		{"EWTCP", core.EWTCP{}, 8},
		{"MPTCP", &core.MPTCP{}, 8},
	}
	type distOut struct {
		thr       Curve
		loss      []Curve
		jain, p10 float64
	}
	cells := RunCells(cfg, len(cases), func(cell Config, idx int) distOut {
		tc := cases[idx]
		w := newWorld(cell.Seed)
		// Base-seed workload: rank curves compare algorithms on the
		// same permutation.
		rng := rand.New(rand.NewSource(cfg.Seed + 13))
		ft := topo.NewFatTree(topo.FatTreeConfig{K: k})
		d := traffic.Permutation(rng, ft.NumHosts())
		var src, dst []int
		for s, t := range d {
			src = append(src, s)
			dst = append(dst, t)
		}
		pf := func(rng *rand.Rand, s, dd int) []transport.Path {
			if tc.paths == 1 {
				return []transport.Path{ft.ECMPPath(rng, s, dd)}
			}
			return ft.Paths(rng, s, dd, tc.paths)
		}
		conns := startFlows(w, rng, src, dst, freshAlg(tc.alg), pf)
		rates := w.measure(conns, warm, end)

		out := distOut{
			thr:  Curve{Name: tc.name},
			jain: model.JainIndex(rates),
			p10:  metrics.Percentile(rates, 10),
		}
		for i, v := range metrics.Rank(rates) {
			out.thr.Pts = append(out.thr.Pts, Point{X: float64(i + 1), Y: v})
		}
		lossRank := func(links []*netsim.Link) []float64 {
			var vals []float64
			for _, l := range links {
				vals = append(vals, l.Stats.LossFraction()*100)
			}
			return metrics.Rank(vals)
		}
		for _, grp := range []struct {
			label string
			links []*netsim.Link
		}{{"core", ft.CoreLinks()}, {"access", ft.AccessLinks()}} {
			lc := Curve{Name: tc.name + "/" + grp.label}
			for i, v := range lossRank(grp.links) {
				if v == 0 && i > 4 {
					break // tail of lossless links adds nothing
				}
				lc.Pts = append(lc.Pts, Point{X: float64(i + 1), Y: v})
			}
			out.loss = append(out.loss, lc)
		}
		return out
	})
	for i, tc := range cases {
		figT.Curves = append(figT.Curves, cells[i].thr)
		figL.Curves = append(figL.Curves, cells[i].loss...)
		// Metric keys must be whitespace-free (testing.B.ReportMetric).
		key := strings.ReplaceAll(tc.name, " ", "")
		res.Metrics[key+"_jain"] = cells[i].jain
		res.Metrics[key+"_p10_mbps"] = cells[i].p10
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
	cfg = cfg.norm()
	res := newResult("table-bcube")
	_, bn, bk := dcSizes(cfg)
	warm, end := cfg.dur(4*sim.Second), cfg.dur(10*sim.Second)

	table := Table{
		Title: "BCube per-host throughput (Mb/s); paper: single 64.5/297/78, EWTCP 84/229/139, MPTCP 86.5/272/135",
		Cols:  []string{"algorithm", "TP1", "TP2", "TP3"},
	}
	cases := []dcAlgCase{
		{"SINGLE-PATH", core.Regular{}, 1},
		{"EWTCP", core.EWTCP{}, 3},
		{"MPTCP", &core.MPTCP{}, 3},
	}
	vals := RunCells(cfg, len(cases)*len(dcTPNames), func(cell Config, idx int) float64 {
		tc := cases[idx/len(dcTPNames)]
		tpName := dcTPNames[idx%len(dcTPNames)]
		w := newWorld(cell.Seed)
		// Base-seed workload, as in runTableFatTree.
		rng := rand.New(rand.NewSource(cfg.Seed + 17))
		bc := topo.NewBCube(topo.BCubeConfig{N: bn, K: bk})
		n := bc.NumHosts()
		// TP2 on BCube: every host replicates to its one-hop
		// neighbours at all levels (the paper's "replicas onto
		// hosts physically close in the network").
		tp2 := func() (src, dst []int) {
			for h := 0; h < n; h++ {
				for l := 0; l < bc.Levels(); l++ {
					for _, nb := range bc.Neighbors(h, l) {
						src = append(src, h)
						dst = append(dst, nb)
					}
				}
			}
			return src, dst
		}
		src, dst := dcPatterns(rng, n, tp2)[tpName]()
		pf := func(rng *rand.Rand, s, d int) []transport.Path {
			if tc.paths == 1 {
				return []transport.Path{bc.ECMPPath(rng, s, d)}
			}
			return bc.Paths(rng, s, d, tc.paths)
		}
		conns := startFlows(w, rng, src, dst, freshAlg(tc.alg), pf)
		rates := w.measure(conns, warm, end)
		return perHost(src, rates)
	})
	for ci, tc := range cases {
		row := []string{tc.name}
		for ti, tpName := range dcTPNames {
			v := vals[ci*len(dcTPNames)+ti]
			row = append(row, f1(v))
			res.Metrics[tc.name+"_"+tpName+"_mbps"] = v
		}
		table.Rows = append(table.Rows, row)
	}
	res.Tables = append(res.Tables, table)
	res.note("three phenomena (§4): multipath exploits all 3 NICs (TP3); EWTCP ignores congestion differences on unequal-hop paths (TP2); single shortest paths beat multipath when the short paths are also least congested (TP2)")
	if bn != 5 {
		res.note("scaled-down BCube(%d,%d); run with -scale 1 for the paper's 125-host BCube(5,2)", bn, bk)
	}
	return res
}
