// Datacenter: a FatTree running the §4 permutation workload (TP1),
// comparing single-path TCP over ECMP with MPTCP over 8 random paths.
//
//	go run ./examples/datacenter [-k 8] [-paths 8] [-secs 5]
package main

import (
	"flag"
	"fmt"
	"math/rand"

	"mptcp/internal/core"
	"mptcp/internal/metrics"
	"mptcp/internal/netsim"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/traffic"
	"mptcp/internal/transport"
)

func main() {
	k := flag.Int("k", 4, "fat-tree arity (8 = the paper's 128 hosts)")
	npaths := flag.Int("paths", 8, "subflows per MPTCP connection")
	secs := flag.Int("secs", 5, "simulated seconds")
	flag.Parse()

	for _, multipath := range []bool{false, true} {
		s := sim.New(3)
		nw := netsim.NewNet(s)
		ft := topo.NewFatTree(topo.FatTreeConfig{K: *k})
		rng := rand.New(rand.NewSource(9))
		dsts := traffic.Permutation(rng, ft.NumHosts())

		var conns []*transport.Conn
		for src, dst := range dsts {
			var paths []transport.Path
			var alg core.Algorithm = core.Regular{}
			if multipath {
				paths = ft.Paths(rng, src, dst, *npaths)
				if len(paths) > 1 {
					alg = &core.MPTCP{}
				}
			} else {
				paths = []transport.Path{ft.ECMPPath(rng, src, dst)}
			}
			c := transport.NewConn(nw, transport.Config{Alg: alg, Paths: paths})
			c.Start()
			conns = append(conns, c)
		}
		warm := sim.Time(*secs) * sim.Second / 3
		end := sim.Time(*secs) * sim.Second
		s.RunUntil(warm)
		base := make([]int64, len(conns))
		for i, c := range conns {
			base[i] = c.Delivered()
		}
		s.RunUntil(end)
		rates := make([]float64, len(conns))
		for i, c := range conns {
			rates[i] = metrics.ThroughputMbps(c.Delivered()-base[i], end-warm)
		}
		mode := "single-path TCP over ECMP"
		if multipath {
			mode = fmt.Sprintf("MPTCP over %d random paths", *npaths)
		}
		fmt.Printf("%-28s mean %5.1f Mb/s/host  p10 %5.1f  Jain %.3f\n",
			mode, metrics.Mean(rates), metrics.Percentile(rates, 10), metrics.JainIndex(rates))
	}
	fmt.Printf("\n(FatTree k=%d: %d hosts; the paper's Fig. 12/13 use k=8 with 8 paths)\n",
		*k, (*k)*(*k)*(*k)/4)
}
