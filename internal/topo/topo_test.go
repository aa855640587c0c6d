package topo

import (
	"math/rand"
	"testing"

	"mptcp/internal/netsim"
	"mptcp/internal/sim"
)

func TestDuplexPath(t *testing.T) {
	a := NewDuplex("a", 10, sim.Millisecond, 10)
	b := NewDuplex("b", 10, sim.Millisecond, 10)
	p := PathThrough(a, b)
	if len(p.Fwd) != 2 || p.Fwd[0] != a.AB || p.Fwd[1] != b.AB {
		t.Error("forward path misassembled")
	}
	if len(p.Rev) != 2 || p.Rev[0] != b.BA || p.Rev[1] != a.BA {
		t.Error("reverse path must traverse duplexes backwards")
	}
}

func TestBDP(t *testing.T) {
	// 12 Mb/s, 100 ms RTT = 1.2 Mb = 100 packets of 1500 B.
	if got := BDPPackets(12, 100*sim.Millisecond); got != 100 {
		t.Errorf("BDP = %d, want 100", got)
	}
	if got := BDPPacketsPkt(1000, 100*sim.Millisecond); got != 100 {
		t.Errorf("BDP(pkt) = %d, want 100", got)
	}
}

func TestTorusStructure(t *testing.T) {
	tor := NewTorus([]float64{1000, 1000, 500, 1000, 1000}, 100*sim.Millisecond)
	if len(tor.Links) != 5 {
		t.Fatalf("links = %d, want 5", len(tor.Links))
	}
	// Flow i uses links i and i+1; so link C (index 2) serves flows 1,2.
	useCount := make(map[*netsim.Link]int)
	for f := 0; f < 5; f++ {
		paths := tor.FlowPaths(f)
		if len(paths) != 2 {
			t.Fatalf("flow %d: %d paths, want 2", f, len(paths))
		}
		for _, p := range paths {
			if len(p.Fwd) != 1 {
				t.Fatalf("torus paths are single-hop, got %d", len(p.Fwd))
			}
			useCount[p.Fwd[0]]++
		}
	}
	for i, d := range tor.Links {
		if useCount[d.AB] != 2 {
			t.Errorf("link %s used by %d flows, want 2", TorusLinkNames[i], useCount[d.AB])
		}
	}
}

func TestFatTreeDimensions(t *testing.T) {
	ft := NewFatTree(FatTreeConfig{K: 8})
	if ft.NumHosts() != 128 {
		t.Errorf("k=8 hosts = %d, want 128", ft.NumHosts())
	}
	// 16 cores, 32 aggs, 32 edges = 80 switches (the paper's numbers).
	if got := len(ft.CoreLinks()); got != 32*4+16*8 {
		t.Errorf("core directed links = %d, want 256", got)
	}
	if got := len(ft.AccessLinks()); got != 2*128 {
		t.Errorf("access directed links = %d, want 256", got)
	}
}

func TestFatTreePathCounts(t *testing.T) {
	ft := NewFatTree(FatTreeConfig{K: 4})
	// k=4: 16 hosts; hosts 0,1 share an edge; 0,2 same pod different
	// edge; 0,4 different pods.
	if got := ft.NumPaths(0, 1); got != 1 {
		t.Errorf("same-edge paths = %d, want 1", got)
	}
	if got := ft.NumPaths(0, 2); got != 2 {
		t.Errorf("same-pod paths = %d, want 2", got)
	}
	if got := ft.NumPaths(0, 4); got != 4 {
		t.Errorf("inter-pod paths = %d, want (k/2)^2 = 4", got)
	}
}

func TestFatTreePathsDistinctAndValid(t *testing.T) {
	ft := NewFatTree(FatTreeConfig{K: 8})
	rng := rand.New(rand.NewSource(1))
	paths := ft.Paths(rng, 0, 127, 8)
	if len(paths) != 8 {
		t.Fatalf("got %d paths, want 8", len(paths))
	}
	seen := map[*netsim.Link]bool{}
	for _, p := range paths {
		if len(p.Fwd) != 6 || len(p.Rev) != 6 {
			t.Fatalf("inter-pod path should have 6 links each way, got %d/%d", len(p.Fwd), len(p.Rev))
		}
		// First and last hops are the same host links on every path; the
		// core hop (index 2→3) must be distinct across paths.
		if p.Fwd[0] != ft.upHE[0] {
			t.Error("path does not start at the source host's NIC")
		}
		core := p.Fwd[3]
		if seen[core] {
			t.Error("duplicate core downlink across supposedly distinct paths")
		}
		seen[core] = true
	}
}

func TestFatTreeECMPPathTerminates(t *testing.T) {
	ft := NewFatTree(FatTreeConfig{K: 4})
	rng := rand.New(rand.NewSource(2))
	for src := 0; src < ft.NumHosts(); src++ {
		for _, dst := range []int{(src + 1) % 16, (src + 5) % 16} {
			if dst == src {
				continue
			}
			p := ft.ECMPPath(rng, src, dst)
			if p.Fwd[0] != ft.upHE[src] || p.Fwd[len(p.Fwd)-1] != ft.downEH[dst] {
				t.Fatalf("ECMP path %d->%d endpoints wrong", src, dst)
			}
		}
	}
}

func TestBCubeDimensions(t *testing.T) {
	b := NewBCube(BCubeConfig{N: 5, K: 2})
	if b.NumHosts() != 125 {
		t.Errorf("BCube(5,2) hosts = %d, want 125", b.NumHosts())
	}
	if b.Levels() != 3 {
		t.Errorf("levels = %d, want 3", b.Levels())
	}
}

func TestBCubeNeighbors(t *testing.T) {
	b := NewBCube(BCubeConfig{N: 5, K: 2})
	h := 37 // digits (1,2,2): 37 = 2 + 2*5 + 1*25
	total := 0
	for l := 0; l < 3; l++ {
		nb := b.Neighbors(h, l)
		if len(nb) != 4 {
			t.Fatalf("level %d neighbors = %d, want 4", l, len(nb))
		}
		total += len(nb)
		for _, x := range nb {
			diff := 0
			for d := 0; d < 3; d++ {
				if b.digit(x, d) != b.digit(h, d) {
					diff++
				}
			}
			if diff != 1 {
				t.Fatalf("neighbor %d differs in %d digits", x, diff)
			}
		}
	}
	if total != 12 {
		t.Errorf("TP2 fanout = %d, want 12", total)
	}
}

func TestBCubePathsEdgeDisjointFirstHop(t *testing.T) {
	b := NewBCube(BCubeConfig{N: 5, K: 2})
	rng := rand.New(rand.NewSource(3))
	src, dst := 0, 124 // digits (0,0,0) -> (4,4,4): all differ
	paths := b.Paths(rng, src, dst, 3)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	first := map[*netsim.Link]bool{}
	for _, p := range paths {
		if len(p.Fwd) != 6 {
			t.Errorf("full-correction path has %d links, want 6", len(p.Fwd))
		}
		if first[p.Fwd[0]] {
			t.Error("two paths leave on the same host interface")
		}
		first[p.Fwd[0]] = true
	}
}

func TestBCubeSingleDigitDifference(t *testing.T) {
	b := NewBCube(BCubeConfig{N: 5, K: 2})
	rng := rand.New(rand.NewSource(4))
	// Hosts differing in one digit: one direct 2-link path, plus detour
	// paths through the other levels' neighbours (BuildPathSet), each
	// leaving on a different interface.
	paths := b.Paths(rng, 0, 1, 3)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	lens := map[int]int{}
	first := map[*netsim.Link]bool{}
	for _, p := range paths {
		lens[len(p.Fwd)]++
		if first[p.Fwd[0]] {
			t.Error("two paths leave on the same interface")
		}
		first[p.Fwd[0]] = true
	}
	if lens[2] != 1 {
		t.Errorf("want exactly one direct 2-link path, got %v", lens)
	}
	// Detours: out to a neighbour, correct the digit, come back = 6 links.
	if lens[6] != 2 {
		t.Errorf("want two 6-link detour paths, got %v", lens)
	}
}

func TestBCubePathsEndpoints(t *testing.T) {
	b := NewBCube(BCubeConfig{N: 3, K: 2})
	rng := rand.New(rand.NewSource(5))
	for src := 0; src < b.NumHosts(); src++ {
		dst := (src + 7) % b.NumHosts()
		if dst == src {
			continue
		}
		for _, p := range b.Paths(rng, src, dst, 3) {
			if len(p.Fwd) == 0 || len(p.Rev) != len(p.Fwd) {
				t.Fatalf("%d->%d: malformed path fwd=%d rev=%d", src, dst, len(p.Fwd), len(p.Rev))
			}
			if p.Fwd[0] != b.up[levelOf(b, p.Fwd[0], src)][src] {
				t.Fatalf("%d->%d: path does not start at src", src, dst)
			}
		}
	}
}

// levelOf finds which of src's uplinks l is, for test validation.
func levelOf(b *BCube, l *netsim.Link, src int) int {
	for lev := 0; lev < b.Levels(); lev++ {
		if b.up[lev][src] == l {
			return lev
		}
	}
	return -1
}

// TestWirelessZeroLossStaysZero: every WirelessConfig field is taken
// as given, so a loss-free radio can be expressed.
func TestWirelessZeroLossStaysZero(t *testing.T) {
	w := NewWireless(WirelessConfig{
		WiFiMbps: 10, WiFiDelay: 5 * sim.Millisecond, WiFiBuf: 20,
		G3Mbps: 2, G3Delay: 50 * sim.Millisecond, G3Buf: 400,
	})
	if len(w.Paths()) != 2 {
		t.Fatalf("wireless paths = %d, want 2", len(w.Paths()))
	}
	for _, l := range []*netsim.Link{w.WiFi.AB, w.WiFi.BA, w.G3.AB, w.G3.BA} {
		if l.LossRate != 0 {
			t.Errorf("%s: loss rate %v, want the configured 0", l.Name, l.LossRate)
		}
	}
}

func TestDualHomed(t *testing.T) {
	d := NewDualHomed(100, 10*sim.Millisecond, 100)
	if got := d.ClientPath(1)[0].Fwd[0]; got != d.Link1.AB {
		t.Error("client path 1 not through link 1")
	}
	mp := d.MultipathPaths()
	if len(mp) != 2 {
		t.Fatalf("multipath paths = %d, want 2", len(mp))
	}
}
