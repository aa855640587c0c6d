// The scene catalogue: the paper's evaluation worlds, each built in
// exactly one place. Every grid column and per-figure experiment that
// runs on a §2.2 mesh, the §2.3 fixed-loss pair, the §3 torus, the §3
// dual-homed server, a §4 data-centre fabric, the §5 busy wireless
// client or the §5 wired pair takes its world from here, so the link
// parameters, the flow population and — what the byte-identical
// artefacts depend on — the order in which connections are constructed
// and started cannot drift between experiments. A world used by one
// experiment only is built in that experiment, with the same add and
// script.

package exp

import (
	"math/rand"

	"mptcp/internal/scenario"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/traffic"
	"mptcp/internal/transport"
)

// scene is one built world: its long-lived flows are constructed and
// started, nothing has run yet.
type scene struct {
	// links are the scriptable links in the topology's canonical order
	// (torus A..E; server link 1, 2; WiFi, 3G).
	links []*topo.Duplex
	// all are the measured flows; all[lo:hi] are the multipath ones.
	all    []*transport.Conn
	lo, hi int
	// paths is the path set of a multipath client (nil on the torus,
	// where every flow has its own pair of links).
	paths []transport.Path
	// churn picks the single path of one scenario-spawned short transfer.
	churn func() []transport.Path
}

// scenes is the catalogue. mp returns the transport.Config of one
// multipath flow — a fresh one per call, since congestion controllers
// and schedulers keep per-connection state; the scene fills in Paths and
// the world's tracer. A nil mp starts only the background TCPs (the
// application grid runs its own transfers over scene.paths).
var scenes = map[string]func(w *world, mp func() transport.Config) *scene{
	"torus":     func(w *world, mp func() transport.Config) *scene { return torusScene(w, 500, mp) },
	"dualhomed": func(w *world, mp func() transport.Config) *scene { return dualHomedScene(w, 2, 6, 4, mp) },
	"wifi3g":    wifi3gScene,
}

func (sc *scene) mp() []*transport.Conn { return sc.all[sc.lo:sc.hi] }

// linkScene is an empty scene over parallel links: path i crosses link i.
func linkScene(links ...*topo.Duplex) *scene {
	sc := &scene{links: links}
	for _, d := range links {
		sc.paths = append(sc.paths, topo.PathThrough(d))
	}
	return sc
}

// add constructs (without starting) one measured flow.
func (sc *scene) add(w *world, cfg transport.Config, paths []transport.Path) *transport.Conn {
	cfg.Paths, cfg.Tracer = paths, w.tr
	c := transport.NewConn(w.n, cfg)
	sc.all = append(sc.all, c)
	return c
}

// torusScene is §3's five-link torus (1000 pkt/s links, 100 ms RTT, link
// C at capC) with five two-path flows; churn crosses a random link.
func torusScene(w *world, capC float64, mp func() transport.Config) *scene {
	tor := topo.NewTorus([]float64{1000, 1000, capC, 1000, 1000}, 100*sim.Millisecond)
	sc := &scene{links: tor.Links, churn: func() []transport.Path {
		return []transport.Path{topo.PathThrough(tor.Links[w.s.Rand().Intn(5)])}
	}}
	if mp != nil {
		for ; sc.hi < 5; sc.hi++ {
			sc.add(w, mp(), tor.FlowPaths(sc.hi)).Start()
		}
	}
	return sc
}

// dualHomedScene is §3's multihomed server: n1 TCPs on access link 1, n2
// on link 2, then nmp multipath flows across both (the grids run 2, 6
// and 4); churn is a client download on a random access link.
func dualHomedScene(w *world, n1, n2, nmp int, mp func() transport.Config) *scene {
	rtt := 20 * sim.Millisecond
	d := topo.NewDualHomed(100, rtt/2, topo.BDPPackets(100, rtt))
	sc := &scene{
		links: []*topo.Duplex{d.Link1, d.Link2},
		paths: d.MultipathPaths(),
		churn: func() []transport.Path { return d.ClientPath(1 + w.s.Rand().Intn(2)) },
	}
	for i := 0; i < n1+n2; i++ {
		link := 1
		if i >= n1 {
			link = 2
		}
		sc.add(w, transport.Config{}, d.ClientPath(link)).Start()
	}
	sc.lo, sc.hi = n1+n2, n1+n2
	if mp != nil {
		for ; sc.hi < n1+n2+nmp; sc.hi++ {
			sc.add(w, mp(), sc.paths).Start()
		}
	}
	return sc
}

// wifi3gScene is §5's busy wireless client: one multipath flow against
// one competing TCP per radio, all three constructed before any starts;
// churn is a neighbour's download on the same WiFi basestation.
func wifi3gScene(w *world, mp func() transport.Config) *scene {
	wl := busyWireless()
	sc := linkScene(wl.WiFi, wl.G3)
	sc.churn = func() []transport.Path { return sc.paths[:1] }
	if mp != nil {
		sc.add(w, mp(), sc.paths)
		sc.hi = 1
	}
	sc.add(w, transport.Config{}, sc.paths[:1])
	sc.add(w, transport.Config{}, sc.paths[1:])
	for _, c := range sc.all {
		c.Start()
	}
	return sc
}

// script binds a scenario script to the scene: its links become the
// script's targets, reporting their state changes to the world's tracer,
// and churn directives spawn single-path transfers by the scene's rule,
// each a life of one connection pool.
func (sc *scene) script(w *world, scn scenario.Scenario) *scenario.Env {
	env := &scenario.Env{Sim: w.s, Net: w.n, Links: sc.links}
	pool := transport.NewConnPool(w.n)
	done := pool.Put // bound once: every arrival shares it
	env.Spawn = func(pkts int64) {
		pool.Get(transport.Config{Paths: sc.churn(), DataPackets: pkts, Tracer: w.tr, OnComplete: done}).Start()
	}
	if w.tr != nil {
		for _, d := range sc.links {
			d.Trace(w.tr)
		}
	}
	scn.MustInstall(env)
	return env
}

// meshScene is a §2.2 mesh: one link per capacity (Mb/s, 100 ms RTT, one
// bandwidth-delay product of buffer), named prefix+first, prefix+(first+1),
// …, and three two-path flows, flow i over routes(links, i).
func meshScene(w *world, prefix string, first rune, caps []float64, mp func() transport.Config,
	routes func(links []*topo.Duplex, i int) []transport.Path) *scene {
	rtt := 100 * sim.Millisecond
	sc := &scene{}
	for i, c := range caps {
		sc.links = append(sc.links, topo.NewDuplex(prefix+string(first+rune(i)), c, rtt/2, topo.BDPPackets(c, rtt)))
	}
	for ; sc.hi < 3; sc.hi++ {
		sc.add(w, mp(), routes(sc.links, sc.hi)).Start()
	}
	return sc
}

// triangleScene is Fig. 2: three 12 Mb/s links, each flow with a one-hop
// path over its own link and a two-hop path over the other two.
func triangleScene(w *world, mp func() transport.Config) *scene {
	return meshScene(w, "tri", 'A', []float64{12, 12, 12}, mp, func(l []*topo.Duplex, i int) []transport.Path {
		return []transport.Path{topo.PathThrough(l[i]), topo.PathThrough(l[(i+1)%3], l[(i+2)%3])}
	})
}

// chainScene is Fig. 3: four links of 5, 12, 10 and 3 Mb/s in a chain,
// flow i over links i and i+1.
func chainScene(w *world, mp func() transport.Config) *scene {
	return meshScene(w, "mesh", '0', []float64{5, 12, 10, 3}, mp, func(l []*topo.Duplex, i int) []transport.Path {
		return []transport.Path{topo.PathThrough(l[i]), topo.PathThrough(l[i+1])}
	})
}

// fixedLossScene is §2.3's worked example: ample-capacity links with
// exogenous loss — WiFi 4 % at 10 ms RTT, 3G 1 % at 100 ms — and one flow
// over paths[lo:hi] of {WiFi, 3G}.
func fixedLossScene(w *world, cfg transport.Config, lo, hi int) *scene {
	wifi := topo.NewDuplexPkt("wifi", 5000, 5*sim.Millisecond, 5000)
	wifi.AB.LossRate = 0.04
	g3 := topo.NewDuplexPkt("3g", 5000, 50*sim.Millisecond, 5000)
	g3.AB.LossRate = 0.01
	sc := linkScene(wifi, g3)
	sc.add(w, cfg, sc.paths[lo:hi]).Start()
	sc.hi = 1
	return sc
}

// wiredPairScene is §5's simulation: single-path TCPs S1 on l1 and S2 on
// l2 against one MPTCP flow M over both, all three constructed before
// any starts.
func wiredPairScene(w *world, l1, l2 *topo.Duplex) *scene {
	sc := linkScene(l1, l2)
	sc.add(w, transport.Config{}, sc.paths[:1])
	sc.add(w, transport.Config{}, sc.paths[1:])
	sc.add(w, transport.Config{Alg: newAlg("MPTCP")}, sc.paths)
	sc.lo, sc.hi = 2, 3
	for _, c := range sc.all {
		c.Start()
	}
	return sc
}

// pktLink is a wired link of the §5 simulations: rate in packets per
// second, round-trip time rtt, one bandwidth-delay product of buffer.
func pktLink(name string, pktPerSec float64, rtt sim.Time) *topo.Duplex {
	return topo.NewDuplexPkt(name, pktPerSec, rtt/2, topo.BDPPacketsPkt(pktPerSec, rtt))
}

// dcFabric is what the §4 experiments ask of a data-centre topology;
// *topo.FatTree and *topo.BCube both provide it.
type dcFabric interface {
	NumHosts() int
	Paths(rng *rand.Rand, src, dst, m int) []transport.Path
	ECMPPath(rng *rand.Rand, src, dst int) transport.Path
}

// fatTree is §4's FatTree at the run's scale.
func fatTree(cfg Config) *topo.FatTree {
	k, _, _ := dcSizes(cfg)
	return topo.NewFatTree(topo.FatTreeConfig{K: k})
}

// dcPaths is the number of paths a FatTree flow that wants all of them
// uses: the paper's 8, or the 4 that exist between two pods of the
// reduced k = 4 fabric.
func dcPaths(cfg Config) int {
	if k, _, _ := dcSizes(cfg); k < 8 {
		return 4
	}
	return 8
}

// tp1 draws §4's TP1: a random permutation, every host sending to one
// other host.
func tp1(rng *rand.Rand, n int) (src, dst []int) {
	for s, t := range traffic.Permutation(rng, n) {
		src = append(src, s)
		dst = append(dst, t)
	}
	return src, dst
}

// startFlows is a §4 world: one flow per (src, dst) pair over fab, each
// started a few milliseconds apart. paths > 0 gives every flow that many
// random paths under alg (a flow that finds only one runs plain TCP);
// paths == 0 is the single-path baseline, one ECMP path each. rng is the
// workload generator the traffic matrix came from.
func startFlows(w *world, rng *rand.Rand, fab dcFabric, src, dst []int, alg string, paths int) *scene {
	sc := &scene{}
	for i := range src {
		var p []transport.Path
		if paths == 0 {
			p = []transport.Path{fab.ECMPPath(rng, src[i], dst[i])}
		} else if p = fab.Paths(rng, src[i], dst[i], paths); len(p) == 0 {
			continue
		}
		a := "REGULAR"
		if len(p) > 1 {
			a = alg
		}
		c := sc.add(w, transport.Config{Alg: newAlg(a)}, p)
		// Desynchronise starts across a few milliseconds.
		w.s.At(sim.Time(rng.Int63n(int64(5*sim.Millisecond))), c.Start)
	}
	sc.hi = len(sc.all)
	return sc
}
