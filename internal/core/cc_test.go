package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func subs(cwnds ...float64) []Subflow {
	s := make([]Subflow, len(cwnds))
	for i, w := range cwnds {
		s[i] = Subflow{Cwnd: w, SSThresh: math.Inf(1), SRTT: 0.1}
	}
	return s
}

func withRTT(s []Subflow, rtts ...float64) []Subflow {
	for i := range s {
		s[i].SRTT = rtts[i]
	}
	return s
}

func TestRegularIsTCP(t *testing.T) {
	var alg Regular
	s := subs(10)
	if got := alg.Increase(s, 0); got != 0.1 {
		t.Errorf("increase = %v, want 1/10", got)
	}
	if got := alg.Decrease(s, 0); got != 5 {
		t.Errorf("decrease -> %v, want 5", got)
	}
}

func TestRegularFloor(t *testing.T) {
	var alg Regular
	s := subs(1.2)
	if got := alg.Decrease(s, 0); got != MinCwnd {
		t.Errorf("decrease -> %v, want floor %v", got, MinCwnd)
	}
}

func TestEWTCPWeighting(t *testing.T) {
	alg := EWTCP{} // weight 1/n
	s := subs(10, 10)
	// weight 1/2 -> increase (1/4)/10
	if got := alg.Increase(s, 0); math.Abs(got-0.025) > 1e-12 {
		t.Errorf("increase = %v, want 0.025", got)
	}
}

func TestEWTCPSinglePathEqualsTCP(t *testing.T) {
	alg := EWTCP{}
	s := subs(20)
	if got, want := alg.Increase(s, 0), (Regular{}).Increase(s, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("single-path EWTCP increase = %v, want TCP's %v", got, want)
	}
}

func TestCoupledIncreaseUsesTotal(t *testing.T) {
	var alg Coupled
	s := subs(10, 30)
	if got := alg.Increase(s, 0); got != 1.0/40 {
		t.Errorf("increase = %v, want 1/40", got)
	}
	if got := alg.Increase(s, 1); got != 1.0/40 {
		t.Errorf("increase on other path = %v, want 1/40", got)
	}
}

func TestCoupledDecreaseTotalHalf(t *testing.T) {
	var alg Coupled
	s := subs(10, 30)
	// w_0 - w_total/2 = 10 - 20 < 1 -> floor
	if got := alg.Decrease(s, 0); got != MinCwnd {
		t.Errorf("decrease -> %v, want floor", got)
	}
	if got := alg.Decrease(s, 1); got != 10 {
		t.Errorf("decrease -> %v, want 30-20=10", got)
	}
}

// Regression for the skewed-window clamp: the intended decrement is
// w_total/2, but a subflow can only give up what it holds above the
// MinCwnd probe floor — the raw subtraction w_r − w_total/2 (deeply
// negative for a small subflow of a large connection) must never leak
// into the result, and the unclamped arithmetic must be exact whenever
// the subflow can absorb the full decrement.
func TestCoupledDecreaseClampSkewed(t *testing.T) {
	var alg Coupled
	// w_0 − w_total/2 = 2 − 321 = −319 raw: clamps to the probe floor.
	s := subs(2, 640)
	if got := alg.Decrease(s, 0); got != MinCwnd {
		t.Errorf("skewed decrease -> %v, want probe floor %v", got, MinCwnd)
	}
	// The big subflow absorbs the full halving decrement exactly.
	if got, want := alg.Decrease(s, 1), 640-321.0; got != want {
		t.Errorf("decrease -> %v, want %v", got, want)
	}
	prop := func(raw []uint16, rsel uint8) bool {
		n := len(raw)
		if n == 0 || n > 8 {
			return true
		}
		s := make([]Subflow, n)
		for i := range s {
			s[i] = Subflow{Cwnd: 0.5 + float64(raw[i]%4000)/3, SRTT: 0.1}
		}
		r := int(rsel) % n
		got := alg.Decrease(s, r)
		if got < MinCwnd || math.IsNaN(got) {
			return false
		}
		// Never larger than the pre-loss window (no jump up on loss).
		if got > math.Max(s[r].Cwnd, MinCwnd)+1e-9 {
			return false
		}
		// When w_r − w_total/2 stays above the floor, the paper's
		// arithmetic applies unmodified.
		if exact := s[r].Cwnd - TotalCwnd(s)/2; exact >= MinCwnd && math.Abs(got-exact) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

func TestCoupledSinglePathReducesToTCP(t *testing.T) {
	var alg Coupled
	s := subs(16)
	if got := alg.Increase(s, 0); got != 1.0/16 {
		t.Errorf("increase = %v, want 1/16", got)
	}
	if got := alg.Decrease(s, 0); got != 8 {
		t.Errorf("decrease -> %v, want 8", got)
	}
}

func TestSemiCoupled(t *testing.T) {
	alg := SemiCoupled{} // a = 1/n
	s := subs(10, 10)
	if got := alg.Increase(s, 0); math.Abs(got-0.5/20) > 1e-12 {
		t.Errorf("increase = %v, want 0.025", got)
	}
	if got := alg.Decrease(s, 0); got != 5 {
		t.Errorf("decrease -> %v, want w_r/2 = 5", got)
	}
}

func TestMPTCPSinglePathReducesToTCP(t *testing.T) {
	alg := &MPTCP{PerAck: true}
	for _, w := range []float64{1, 2, 10, 100.5} {
		s := subs(w)
		want := 1 / w
		if got := alg.Increase(s, 0); math.Abs(got-want) > 1e-12 {
			t.Errorf("w=%v: increase = %v, want %v", w, got, want)
		}
	}
}

func TestMPTCPEqualRTTEqualWindows(t *testing.T) {
	// With equal windows and RTTs, eq. (1) minimises at the full set:
	// (w/RTT²)/(n·w/RTT)² = 1/(n²w).
	alg := &MPTCP{PerAck: true}
	s := subs(10, 10)
	want := 1.0 / (4 * 10)
	if got := alg.Increase(s, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("increase = %v, want %v", got, want)
	}
}

func TestMPTCPCapAtSingletonSet(t *testing.T) {
	// A subflow with tiny window but huge RTT: the singleton/prefix sets
	// cap its increase at 1/w_r.
	alg := &MPTCP{PerAck: true}
	s := withRTT(subs(2, 100), 1.0, 0.01)
	inc := alg.Increase(s, 0)
	if inc > 1.0/2+1e-12 {
		t.Errorf("increase %v exceeds 1/w_r cap", inc)
	}
}

func TestMPTCPIncreaseMatchesBruteForce(t *testing.T) {
	// The appendix claims the min over all subsets S ∋ r equals the min
	// over prefix sets of the √w/RTT ordering. Verify against brute
	// force over all 2^n subsets.
	brute := func(s []Subflow, r int) float64 {
		n := len(s)
		best := math.Inf(1)
		for mask := 1; mask < 1<<n; mask++ {
			if mask&(1<<r) == 0 {
				continue
			}
			num := 0.0
			den := 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) == 0 {
					continue
				}
				w := s[i].Cwnd
				if w < MinCwnd {
					w = MinCwnd
				}
				rtt := s[i].SRTT
				num = math.Max(num, w/(rtt*rtt))
				den += w / rtt
			}
			if v := num / (den * den); v < best {
				best = v
			}
		}
		return best
	}
	alg := &MPTCP{PerAck: true}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(5)
		s := make([]Subflow, n)
		for i := range s {
			s[i] = Subflow{
				Cwnd: 1 + rng.Float64()*99,
				SRTT: 0.01 + rng.Float64()*0.99,
			}
		}
		for r := 0; r < n; r++ {
			got := alg.Increase(s, r)
			want := brute(s, r)
			if math.Abs(got-want) > 1e-9*want {
				t.Fatalf("trial %d subflow %d: linear search %v != brute force %v (state %+v)",
					trial, r, got, want, s)
			}
		}
	}
}

func TestMPTCPCachedMatchesPerAck(t *testing.T) {
	cached := &MPTCP{}
	perAck := &MPTCP{PerAck: true}
	s := withRTT(subs(10, 20), 0.05, 0.2)
	for r := 0; r < 2; r++ {
		if got, want := cached.Increase(s, r), perAck.Increase(s, r); math.Abs(got-want) > 1e-12 {
			t.Errorf("cached increase differs: %v vs %v", got, want)
		}
	}
	// Small window drift (< 1 packet total) keeps the cache.
	s[0].Cwnd += 0.3
	before := cached.Increase(s, 0)
	s[0].Cwnd += 0.3
	if got := cached.Increase(s, 0); got != before {
		t.Error("cache should not recompute for sub-packet growth")
	}
	// A full packet of growth triggers recomputation.
	s[0].Cwnd += 1.0
	if got, want := cached.Increase(s, 0), perAck.Increase(s, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("after growth: cached %v vs fresh %v", got, want)
	}
}

func TestMPTCPDecreaseInvalidatesCache(t *testing.T) {
	cached := &MPTCP{}
	s := withRTT(subs(10, 20), 0.05, 0.2)
	cached.Increase(s, 0)
	s[1].Cwnd = cached.Decrease(s, 1)
	perAck := &MPTCP{PerAck: true}
	if got, want := cached.Increase(s, 0), perAck.Increase(s, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("after loss: cached %v vs fresh %v", got, want)
	}
}

// The increase is recomputed on the per-ACK path whenever the windows
// grow by a packet, so a recomputation must allocate nothing once the
// scratch slices exist.
func TestMPTCPIncreaseAllocationFree(t *testing.T) {
	m := &MPTCP{}
	s := withRTT(subs(10, 20, 5), 0.05, 0.2, 0.1)
	n := testing.AllocsPerRun(100, func() {
		m.Decrease(s, 0) // invalidates the cache: every Increase misses it
		m.Increase(s, 1)
	})
	if n != 0 {
		t.Errorf("%.1f allocations per recomputed increase, want 0", n)
	}
}

// sortSliceIncrease is rawIncrease as it was written with sort.Slice: the
// reference the insertion sort must match bit for bit.
func sortSliceIncrease(subs []Subflow, r int) float64 {
	n := len(subs)
	ord := make([]int, n)
	for i := range ord {
		ord[i] = i
	}
	key := func(i int) float64 {
		rtt := subs[i].rtt()
		return floorMin(subs[i].Cwnd) / (rtt * rtt)
	}
	sort.Slice(ord, func(a, b int) bool { return key(ord[a]) < key(ord[b]) })
	pos := slices.Index(ord, r)
	best, sum := math.Inf(1), 0.0
	for u, i := range ord {
		w, rtt := floorMin(subs[i].Cwnd), subs[i].rtt()
		sum += w / rtt
		if u >= pos {
			best = min(best, (w/(rtt*rtt))/(sum*sum))
		}
	}
	return best
}

// Tied keys are where two sorts may disagree, and the order of the sum
// decides the last bits of the result: up to 12 subflows, the pinned
// artefacts' increases are exactly what sort.Slice gave.
func TestMPTCPIncreaseMatchesSortSliceExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alg := &MPTCP{PerAck: true}
	for trial := 0; trial < 2000; trial++ {
		s := make([]Subflow, 2+rng.Intn(11))
		for i := range s {
			// Few distinct values, so many keys tie; 0 exercises DefaultSRTT.
			s[i] = Subflow{Cwnd: float64(1 + rng.Intn(4)), SRTT: []float64{0, 0.1, 0.05, 0.2}[rng.Intn(4)]}
		}
		for r := range s {
			if got, want := alg.Increase(s, r), sortSliceIncrease(s, r); got != want {
				t.Fatalf("subflows %+v, r = %d: increase %v, sort.Slice gave %v", s, r, got, want)
			}
		}
	}
}

func TestMPTCPNoRTTSampleFallback(t *testing.T) {
	alg := &MPTCP{PerAck: true}
	s := []Subflow{{Cwnd: 10}, {Cwnd: 10}}
	inc := alg.Increase(s, 0)
	if math.IsNaN(inc) || math.IsInf(inc, 0) || inc <= 0 {
		t.Errorf("increase with no RTT samples = %v", inc)
	}
}

// Property: every algorithm's increase is positive and finite, and its
// decrease is within [MinCwnd, w_r] — windows never jump up on loss.
func TestIncreaseDecreaseSanityProperty(t *testing.T) {
	algs := []Algorithm{Regular{}, EWTCP{}, Coupled{}, SemiCoupled{}, &MPTCP{PerAck: true}, &MPTCP{}}
	prop := func(raw []uint16, rttRaw []uint16, rsel uint8) bool {
		n := len(raw)
		if n == 0 || n > 8 {
			return true
		}
		s := make([]Subflow, n)
		for i := range s {
			s[i] = Subflow{
				Cwnd: 1 + float64(raw[i]%2000)/7,
				SRTT: 0.001 + float64(rttRaw[i%max(1, len(rttRaw))]%2000)/1000,
			}
		}
		r := int(rsel) % n
		for _, alg := range algs {
			inc := alg.Increase(s, r)
			if !(inc > 0) || math.IsInf(inc, 0) || math.IsNaN(inc) {
				return false
			}
			dec := alg.Decrease(s, r)
			if dec < MinCwnd || dec > math.Max(s[r].Cwnd, MinCwnd)+1e-9 || math.IsNaN(dec) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// Property: MPTCP's increase never exceeds 1/w_r (§2.5's cap, via the
// singleton subset in eq. (1)) and never exceeds REGULAR TCP's increase.
func TestMPTCPCapProperty(t *testing.T) {
	alg := &MPTCP{PerAck: true}
	prop := func(wRaw, rttRaw []uint16, rsel uint8) bool {
		n := len(wRaw)
		if n == 0 || n > 8 || len(rttRaw) < n {
			return true
		}
		s := make([]Subflow, n)
		for i := range s {
			s[i] = Subflow{
				Cwnd: 1 + float64(wRaw[i]%5000)/11,
				SRTT: 0.001 + float64(rttRaw[i]%3000)/1000,
			}
		}
		r := int(rsel) % n
		inc := alg.Increase(s, r)
		w := s[r].Cwnd
		if w < MinCwnd {
			w = MinCwnd
		}
		return inc <= 1/w+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// Property: MPTCP's increase is monotone in the sense that adding an extra
// path never raises the increase of an existing path (more coupling can
// only damp aggressiveness).
func TestMPTCPExtraPathDampsProperty(t *testing.T) {
	alg := &MPTCP{PerAck: true}
	prop := func(wRaw, rttRaw []uint16, extraW, extraRTT uint16) bool {
		n := len(wRaw)
		if n == 0 || n > 6 || len(rttRaw) < n {
			return true
		}
		s := make([]Subflow, n)
		for i := range s {
			s[i] = Subflow{
				Cwnd: 1 + float64(wRaw[i]%5000)/11,
				SRTT: 0.001 + float64(rttRaw[i]%3000)/1000,
			}
		}
		base := alg.Increase(s, 0)
		s2 := append(append([]Subflow{}, s...), Subflow{
			Cwnd: 1 + float64(extraW%5000)/11,
			SRTT: 0.001 + float64(extraRTT%3000)/1000,
		})
		withExtra := alg.Increase(s2, 0)
		return withExtra <= base+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
