package topo

import (
	"fmt"
	"math/rand"

	"mptcp/internal/netsim"
	"mptcp/internal/transport"
)

// BCube is the server-centric data centre of Guo et al. used in §4.
// BCube(n,k) has n^(k+1) hosts, each with k+1 interfaces, and (k+1)·n^k
// n-port switches arranged in k+1 levels. A host is addressed by k+1
// base-n digits; the level-l switch it attaches to connects the n hosts
// that agree on every digit except digit l.
//
// The paper evaluates BCube with "125 three-interface hosts and 25
// five-port switches": that is BCube(5,2) — 125 hosts, 3 levels of 25
// switches each (75 switches total; we take the paper's "25" as a
// per-level count). Routing corrects address digits one level at a time;
// rotating the correction order yields the k+1 paths whose first hops
// leave on different host interfaces, which is how the paper obtains "3
// edge-disjoint paths according to the BCube routing algorithm, choosing
// the intermediate nodes at random when the algorithm needed a choice".
type BCube struct {
	N, K  int
	hosts int

	// up[l][h]: host h -> its level-l switch; down[l][h]: switch -> h.
	up   [][]*netsim.Link
	down [][]*netsim.Link

	pow []int // pow[i] = n^i
}

// BCubeConfig sizes the fabric; its links are the paper's 100 Mb/s
// (newFabricLink).
type BCubeConfig struct {
	N int // switch port count (5 reproduces the paper)
	K int // levels-1 (2 reproduces the paper)
}

// NewBCube builds the topology.
func NewBCube(cfg BCubeConfig) *BCube {
	if cfg.N < 2 || cfg.K < 0 {
		panic("topo: BCube needs n >= 2, k >= 0")
	}
	b := &BCube{N: cfg.N, K: cfg.K}
	levels := cfg.K + 1
	b.pow = make([]int, levels+1)
	b.pow[0] = 1
	for i := 1; i <= levels; i++ {
		b.pow[i] = b.pow[i-1] * cfg.N
	}
	b.hosts = b.pow[levels]
	b.up = make([][]*netsim.Link, levels)
	b.down = make([][]*netsim.Link, levels)
	for l := 0; l < levels; l++ {
		b.up[l] = make([]*netsim.Link, b.hosts)
		b.down[l] = make([]*netsim.Link, b.hosts)
		for h := 0; h < b.hosts; h++ {
			b.up[l][h] = newFabricLink(fmt.Sprintf("b-h%d-l%d-up", h, l))
			b.down[l][h] = newFabricLink(fmt.Sprintf("b-h%d-l%d-down", h, l))
		}
	}
	return b
}

// NumHosts returns n^(k+1).
func (b *BCube) NumHosts() int { return b.hosts }

// Levels returns k+1, the number of interfaces per host.
func (b *BCube) Levels() int { return b.K + 1 }

// digit returns digit l of host h's address.
func (b *BCube) digit(h, l int) int { return (h / b.pow[l]) % b.N }

// setDigit returns h with digit l replaced by v.
func (b *BCube) setDigit(h, l, v int) int {
	return h + (v-b.digit(h, l))*b.pow[l]
}

// Neighbors returns the hosts one hop away from h via its level-l
// switch — TP2's replication targets ("the host's neighbors in the three
// levels").
func (b *BCube) Neighbors(h, l int) []int {
	var out []int
	for v := 0; v < b.N; v++ {
		if v != b.digit(h, l) {
			out = append(out, b.setDigit(h, l, v))
		}
	}
	return out
}

// hostSeq builds the sequence of hosts visited from src to dst when the
// digit-correction order starts at level s (then s+1, … mod levels).
// When digit s already matches dst — so the level-s NIC would go unused —
// the path takes a detour through a random level-s neighbour first and
// undoes it at the end, as in the BCube paper's BuildPathSet ("choosing
// the intermediate nodes at random when the algorithm needed a choice").
func (b *BCube) hostSeq(rng *rand.Rand, src, dst, s int) []int {
	levels := b.Levels()
	seq := []int{src}
	cur := src
	detour := -1
	if b.digit(src, s) == b.digit(dst, s) && src != dst {
		detour = (b.digit(src, s) + 1 + rng.Intn(b.N-1)) % b.N
		cur = b.setDigit(cur, s, detour)
		seq = append(seq, cur)
	}
	for i := 0; i < levels; i++ {
		l := (s + i) % levels
		want := b.digit(dst, l)
		if l == s && detour >= 0 {
			continue // fixed at the end
		}
		if b.digit(cur, l) != want {
			cur = b.setDigit(cur, l, want)
			seq = append(seq, cur)
		}
	}
	if detour >= 0 {
		cur = b.setDigit(cur, s, b.digit(dst, s))
		seq = append(seq, cur)
	}
	return seq
}

// linksFor converts a host sequence into directed links: each hop crosses
// the switch of the level at which the two hosts differ.
func (b *BCube) linksFor(seq []int) []*netsim.Link {
	var links []*netsim.Link
	for i := 0; i+1 < len(seq); i++ {
		a, c := seq[i], seq[i+1]
		for l := 0; l < b.Levels(); l++ {
			if b.digit(a, l) != b.digit(c, l) {
				links = append(links, b.up[l][a], b.down[l][c])
				break
			}
		}
	}
	return links
}

func reverseHosts(seq []int) []int {
	out := make([]int, len(seq))
	for i, v := range seq {
		out[len(seq)-1-i] = v
	}
	return out
}

// Paths returns up to m distinct paths, one per starting level (shuffled
// by rng). Starting levels whose digit differs use plain digit-correction
// rotations; others detour via a random level-s neighbour. The paths
// leave on distinct host interfaces, giving the paper's "3 edge-disjoint
// paths according to the BCube routing algorithm".
func (b *BCube) Paths(rng *rand.Rand, src, dst, m int) []transport.Path {
	if src == dst {
		return nil
	}
	var out []transport.Path
	for _, s := range rng.Perm(b.Levels()) {
		if len(out) >= m {
			break
		}
		seq := b.hostSeq(rng, src, dst, s)
		out = append(out, transport.Path{
			Fwd: b.linksFor(seq),
			Rev: b.linksFor(reverseHosts(seq)),
		})
	}
	return out
}

// ECMPPath returns a single shortest path (a random correction-order
// rotation with no detours) — the single-path baseline.
func (b *BCube) ECMPPath(rng *rand.Rand, src, dst int) transport.Path {
	levels := b.Levels()
	s := rng.Intn(levels)
	cur := src
	seq := []int{src}
	for i := 0; i < levels; i++ {
		l := (s + i) % levels
		if want := b.digit(dst, l); b.digit(cur, l) != want {
			cur = b.setDigit(cur, l, want)
			seq = append(seq, cur)
		}
	}
	return transport.Path{
		Fwd: b.linksFor(seq),
		Rev: b.linksFor(reverseHosts(seq)),
	}
}
