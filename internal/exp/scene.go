// The scene catalogue: the paper's three small evaluation worlds, each
// built in exactly one place. Every grid column and per-figure
// experiment that runs on the §3 torus, the §3 dual-homed server or the
// §5 busy wireless client takes its world from here, so the link
// parameters, the flow population and — what the byte-identical
// artefacts depend on — the order in which connections are constructed
// and started cannot drift between experiments.

package exp

import (
	"mptcp/internal/scenario"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
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
	"dualhomed": dualHomedScene,
	"wifi3g":    wifi3gScene,
}

func (sc *scene) mp() []*transport.Conn { return sc.all[sc.lo:sc.hi] }

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

// dualHomedScene is §3's multihomed server: 2 TCPs on access link 1, 6
// on link 2, then 4 multipath flows across both; churn is a client
// download on a random access link.
func dualHomedScene(w *world, mp func() transport.Config) *scene {
	rtt := 20 * sim.Millisecond
	d := topo.NewDualHomed(100, rtt/2, topo.BDPPackets(100, rtt))
	sc := &scene{
		links: []*topo.Duplex{d.Link1, d.Link2},
		paths: d.MultipathPaths(),
		churn: func() []transport.Path { return d.ClientPath(1 + w.s.Rand().Intn(2)) },
	}
	for i := 0; i < 8; i++ {
		link := 1
		if i >= 2 {
			link = 2
		}
		sc.add(w, transport.Config{}, d.ClientPath(link)).Start()
	}
	sc.lo, sc.hi = 8, 8
	if mp != nil {
		for ; sc.hi < 12; sc.hi++ {
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
	sc := &scene{
		links: []*topo.Duplex{wl.WiFi, wl.G3},
		paths: wl.Paths(),
		churn: func() []transport.Path { return []transport.Path{topo.PathThrough(wl.WiFi)} },
	}
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

// install binds the named scenario script (built for horizon end) to the
// scene: its links become the script's targets, reporting their state
// changes to the world's tracer, and churn directives spawn single-path
// transfers by the scene's rule.
func (sc *scene) install(w *world, name string, end sim.Time) *scenario.Env {
	env := &scenario.Env{Sim: w.s, Net: w.n, Links: sc.links}
	env.Spawn = func(pkts int64) {
		transport.NewConn(w.n, transport.Config{Paths: sc.churn(), DataPackets: pkts, Tracer: w.tr}).Start()
	}
	if w.tr != nil {
		for _, d := range sc.links {
			d.Trace(w.tr)
		}
	}
	scenario.MustBuild(name, end).MustInstall(env)
	return env
}
