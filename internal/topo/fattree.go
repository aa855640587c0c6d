package topo

import (
	"fmt"
	"math/rand"

	"mptcp/internal/netsim"
	"mptcp/internal/transport"
)

// FatTree is the k-ary fat tree of Al-Fares et al. used in §4: k pods,
// each with k/2 edge and k/2 aggregation switches, (k/2)² core switches,
// and k³/4 single-interface hosts. k=8 gives the paper's configuration:
// 128 hosts and 80 eight-port switches, all links 100 Mb/s.
//
// Between hosts in different pods there are (k/2)² distinct shortest
// paths, one per core switch; within a pod, k/2 paths, one per
// aggregation switch; under the same edge switch, a single two-hop path.
// Paths selects m of them at random, mimicking the paper's "for each pair
// of hosts we selected 8 paths at random"; ECMPPath picks a single random
// shortest path, mimicking flow-level ECMP.
type FatTree struct {
	K     int
	hosts int

	// Directed links. Naming: up = toward the core, down = toward hosts.
	upHE   []*netsim.Link     // host -> edge switch
	downEH []*netsim.Link     // edge switch -> host
	upEA   [][][]*netsim.Link // [pod][edge][agg]
	downAE [][][]*netsim.Link // [pod][agg][edge]
	upAC   [][]*netsim.Link   // [agg global][core port] agg -> core
	downCA [][]*netsim.Link   // [core][pod] core -> agg
}

// FatTreeConfig sizes the fabric; its links are the paper's 100 Mb/s
// (newFabricLink).
type FatTreeConfig struct {
	K int // must be even; 8 reproduces the paper
}

// NewFatTree builds the topology.
func NewFatTree(cfg FatTreeConfig) *FatTree {
	if cfg.K%2 != 0 || cfg.K < 2 {
		panic("topo: fat tree K must be even and >= 2")
	}
	k := cfg.K
	half := k / 2
	ft := &FatTree{K: k, hosts: k * k * k / 4}
	for h := 0; h < ft.hosts; h++ {
		ft.upHE = append(ft.upHE, newFabricLink(fmt.Sprintf("h%d-up", h)))
		ft.downEH = append(ft.downEH, newFabricLink(fmt.Sprintf("h%d-down", h)))
	}
	ft.upEA = make([][][]*netsim.Link, k)
	ft.downAE = make([][][]*netsim.Link, k)
	for p := 0; p < k; p++ {
		ft.upEA[p] = make([][]*netsim.Link, half)
		ft.downAE[p] = make([][]*netsim.Link, half)
		for e := 0; e < half; e++ {
			ft.upEA[p][e] = make([]*netsim.Link, half)
			for a := 0; a < half; a++ {
				ft.upEA[p][e][a] = newFabricLink(fmt.Sprintf("p%d-e%d-a%d-up", p, e, a))
			}
		}
		for a := 0; a < half; a++ {
			ft.downAE[p][a] = make([]*netsim.Link, half)
			for e := 0; e < half; e++ {
				ft.downAE[p][a][e] = newFabricLink(fmt.Sprintf("p%d-a%d-e%d-down", p, a, e))
			}
		}
	}
	nAgg := k * half
	ft.upAC = make([][]*netsim.Link, nAgg)
	for ag := 0; ag < nAgg; ag++ {
		ft.upAC[ag] = make([]*netsim.Link, half)
		for c := 0; c < half; c++ {
			ft.upAC[ag][c] = newFabricLink(fmt.Sprintf("ag%d-c%d-up", ag, c))
		}
	}
	nCore := half * half
	ft.downCA = make([][]*netsim.Link, nCore)
	for c := 0; c < nCore; c++ {
		ft.downCA[c] = make([]*netsim.Link, k)
		for p := 0; p < k; p++ {
			ft.downCA[c][p] = newFabricLink(fmt.Sprintf("c%d-p%d-down", c, p))
		}
	}
	return ft
}

// NumHosts returns the host count (k³/4).
func (ft *FatTree) NumHosts() int { return ft.hosts }

func (ft *FatTree) half() int { return ft.K / 2 }

// pod, edge-in-pod and position of a host.
func (ft *FatTree) locate(h int) (pod, edge, pos int) {
	half := ft.half()
	return h / (half * half), (h / half) % half, h % half
}

// NumPaths returns the number of distinct shortest paths between two
// hosts.
func (ft *FatTree) NumPaths(src, dst int) int {
	sp, se, _ := ft.locate(src)
	dp, de, _ := ft.locate(dst)
	switch {
	case src == dst:
		return 0
	case sp != dp:
		return ft.half() * ft.half()
	case se != de:
		return ft.half()
	default:
		return 1
	}
}

// fwdVia builds the one-directional link list src->dst via core c (inter-
// pod) or agg a (intra-pod).
func (ft *FatTree) fwdVia(src, dst, route int) []*netsim.Link {
	sp, se, _ := ft.locate(src)
	dp, de, _ := ft.locate(dst)
	half := ft.half()
	switch {
	case sp != dp:
		c := route // core switch index
		a := c / half
		port := c % half
		return []*netsim.Link{
			ft.upHE[src],
			ft.upEA[sp][se][a],
			ft.upAC[sp*half+a][port],
			ft.downCA[c][dp],
			ft.downAE[dp][a][de],
			ft.downEH[dst],
		}
	case se != de:
		a := route // aggregation switch within the pod
		return []*netsim.Link{
			ft.upHE[src],
			ft.upEA[sp][se][a],
			ft.downAE[sp][a][de],
			ft.downEH[dst],
		}
	default:
		return []*netsim.Link{ft.upHE[src], ft.downEH[dst]}
	}
}

// pathVia assembles the bidirectional transport.Path using the same
// intermediate switch in both directions.
func (ft *FatTree) pathVia(src, dst, route int) transport.Path {
	return transport.Path{
		Fwd: ft.fwdVia(src, dst, route),
		Rev: ft.fwdVia(dst, src, route),
	}
}

// Paths returns min(m, NumPaths) distinct shortest paths selected
// uniformly at random.
func (ft *FatTree) Paths(rng *rand.Rand, src, dst, m int) []transport.Path {
	n := ft.NumPaths(src, dst)
	if n == 0 {
		return nil
	}
	if m > n {
		m = n
	}
	routes := rng.Perm(n)[:m]
	out := make([]transport.Path, 0, m)
	for _, r := range routes {
		out = append(out, ft.pathVia(src, dst, r))
	}
	return out
}

// ECMPPath returns one shortest path chosen uniformly at random — the
// paper's stand-in for flow-level ECMP ("we mimicked ECMP in our
// simulator by making each TCP source pick one of the shortest-hop paths
// at random").
func (ft *FatTree) ECMPPath(rng *rand.Rand, src, dst int) transport.Path {
	return ft.pathVia(src, dst, rng.Intn(ft.NumPaths(src, dst)))
}

// CoreLinks returns all directed links between aggregation and core
// switches (the "core links" of Fig. 13).
func (ft *FatTree) CoreLinks() []*netsim.Link {
	var out []*netsim.Link
	for _, ports := range ft.upAC {
		out = append(out, ports...)
	}
	for _, pods := range ft.downCA {
		out = append(out, pods...)
	}
	return out
}

// AccessLinks returns all host<->edge directed links (the "access links"
// of Fig. 13).
func (ft *FatTree) AccessLinks() []*netsim.Link {
	var out []*netsim.Link
	out = append(out, ft.upHE...)
	out = append(out, ft.downEH...)
	return out
}
