package exp

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mptcp/internal/netsim"
	"mptcp/internal/sim"
	"mptcp/internal/transport"
)

// TestTorusStructure: torusScene builds links torus-A … torus-E, link C
// at the capacity asked for, and five two-path flows, flow i over links
// i and (i+1) mod 5. Taking link l down from the start stalls exactly
// one subflow of each of its two flows, l−1 and l.
func TestTorusStructure(t *testing.T) {
	mp := func() transport.Config { return transport.Config{Alg: newAlg("MPTCP")} }
	for l := 0; l < 5; l++ {
		w := newWorld(1)
		sc := torusScene(w, 500, mp)
		if len(sc.links) != 5 || len(sc.mp()) != 5 {
			t.Fatalf("torus: %d links, %d multipath flows; want 5 and 5", len(sc.links), len(sc.mp()))
		}
		if want := "torus-" + string('A'+rune(l)) + "/ab"; sc.links[l].AB.Name != want {
			t.Errorf("link %d is %q, want %q", l, sc.links[l].AB.Name, want)
		}
		sc.links[l].SetDown(true)
		w.s.RunUntil(sim.Second)
		var stalled []int
		for f, c := range sc.mp() {
			if len(c.Subflows()) != 2 {
				t.Fatalf("flow %d: %d subflows, want 2", f, len(c.Subflows()))
			}
			for j := 0; j < 2; j++ {
				if c.SubflowDelivered(j) == 0 {
					stalled = append(stalled, f)
				}
			}
		}
		slices.Sort(stalled)
		if want := []int{min(l, (l+4)%5), max(l, (l+4)%5)}; !slices.Equal(stalled, want) {
			t.Errorf("link %d down stalls subflows of flows %v, want %v", l, stalled, want)
		}
	}
	if got := torusScene(newWorld(1), 500, nil).links[2].AB.RateBps; got != 500*netsim.DataPacketSize*8 {
		t.Errorf("link C rate %v b/s, want 500 pkt/s", got)
	}
}

// TestWirelessZeroLossStaysZero: radioPair takes every loss rate as
// given, so a loss-free radio can be expressed; a lossy WiFi's ACK
// direction loses a quarter of its data loss, and 3G's none.
func TestWirelessZeroLossStaysZero(t *testing.T) {
	sc := radioPair(radio{10, 5 * sim.Millisecond, 20, 0}, radio{2, 50 * sim.Millisecond, 400, 0})
	if len(sc.paths) != 2 {
		t.Fatalf("wireless paths = %d, want 2", len(sc.paths))
	}
	for _, d := range sc.links {
		for _, l := range []*netsim.Link{d.AB, d.BA} {
			if l.LossRate != 0 {
				t.Errorf("%s: loss rate %v, want the configured 0", l.Name, l.LossRate)
			}
		}
	}
	busy := busyWireless()
	if wifi, g3 := busy.links[0], busy.links[1]; wifi.BA.LossRate != wifi.AB.LossRate/4 || g3.BA.LossRate != 0 {
		t.Errorf("ACK loss: WiFi %v of data %v, 3G %v; want a quarter and 0", wifi.BA.LossRate, wifi.AB.LossRate, g3.BA.LossRate)
	}
}

// TestDualHomed: dualHomedScene puts its first n1 TCPs on access link 1,
// the next n2 on link 2 and the multipath flows over both, path i over
// link i. With link 2 down from the start only link 1 delivers.
func TestDualHomed(t *testing.T) {
	w := newWorld(1)
	sc := dualHomedScene(w, 1, 1, 1, func() transport.Config { return transport.Config{Alg: newAlg("MPTCP")} })
	if len(sc.paths) != 2 || len(sc.all) != 3 || len(sc.mp()) != 1 {
		t.Fatalf("dual-homed: %d paths, %d flows, %d multipath; want 2, 3, 1", len(sc.paths), len(sc.all), len(sc.mp()))
	}
	for i, p := range sc.paths {
		if p.Fwd[0] != sc.links[i].AB {
			t.Errorf("multipath path %d not through access link %d", i, i+1)
		}
	}
	sc.links[1].SetDown(true)
	w.s.RunUntil(sim.Second)
	tcp1, tcp2, mp := sc.all[0], sc.all[1], sc.all[2]
	if tcp1.Delivered() == 0 || tcp2.Delivered() != 0 || mp.SubflowDelivered(0) == 0 || mp.SubflowDelivered(1) != 0 {
		t.Errorf("link 2 down: TCP1 %d, TCP2 %d, multipath %d/%d packets; want only link 1 to deliver",
			tcp1.Delivered(), tcp2.Delivered(), mp.SubflowDelivered(0), mp.SubflowDelivered(1))
	}
}

func TestPoissonArrivalRate(t *testing.T) {
	s := sim.New(4)
	count := 0
	pa := &poissonArrivals{s: s, rate: 60, spawn: func() { count++ }}
	pa.start()
	s.RunUntil(100 * sim.Second)
	if count < 5400 || count > 6600 {
		t.Errorf("arrivals in 100 s at rate 60/s = %d, want ~6000", count)
	}
}

func TestPoissonRateChange(t *testing.T) {
	s := sim.New(5)
	count := 0
	pa := &poissonArrivals{s: s, rate: 10, spawn: func() { count++ }}
	pa.start()
	s.RunUntil(50 * sim.Second)
	low := count
	pa.rate = 60
	s.RunUntil(100 * sim.Second)
	high := count - low
	if float64(high) < 3*float64(low) {
		t.Errorf("rate change ineffective: %d then %d arrivals", low, high)
	}
}

// TestPermutationProperty: TP1 sends host i to dst[i] != i, and every
// host receives exactly one flow.
func TestPermutationProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%100) + 2
		rng := rand.New(rand.NewSource(seed))
		src, dst := tp1(rng, n)
		if len(src) != n || len(dst) != n {
			return false
		}
		seen := make([]bool, n)
		for i, d := range dst {
			if src[i] != i || d == i || d < 0 || d >= n || seen[d] {
				return false
			}
			seen[d] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSparseFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src, dst := sparseFlows(rng, 100, 0.3)
	if len(src) != 30 || len(dst) != 30 {
		t.Fatalf("sparse flows = %d, want 30", len(src))
	}
	srcSeen := map[int]bool{}
	for i := range src {
		if src[i] == dst[i] {
			t.Error("self-flow generated")
		}
		if srcSeen[src[i]] {
			t.Error("duplicate source host")
		}
		srcSeen[src[i]] = true
	}
}

func TestOneToMany(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src, dst := oneToMany(rng, 50, 12)
	if len(src) != 50*12 {
		t.Fatalf("flows = %d, want 600", len(src))
	}
	perSrc := map[int]map[int]bool{}
	for i := range src {
		if perSrc[src[i]] == nil {
			perSrc[src[i]] = map[int]bool{}
		}
		if src[i] == dst[i] {
			t.Fatal("self-flow")
		}
		if perSrc[src[i]][dst[i]] {
			t.Fatal("duplicate destination for one source")
		}
		perSrc[src[i]][dst[i]] = true
	}
}
