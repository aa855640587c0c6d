package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mptcp/internal/core"
	"mptcp/internal/metrics"
)

// The §2.3 worked example: WiFi RTT 10 ms at 4 % loss, 3G RTT 100 ms at
// 1 % loss.
var (
	sec23p   = []float64{0.04, 0.01}
	sec23rtt = []float64{0.010, 0.100}
)

func TestTCPFormulaSec23(t *testing.T) {
	// "A single-path wifi flow would get 707 pkt/s, and a single-path 3G
	// flow would get 141 pkt/s."
	wifi := TCPRate(sec23p[0], sec23rtt[0])
	g3 := TCPRate(sec23p[1], sec23rtt[1])
	if math.Abs(wifi-707) > 1 {
		t.Errorf("WiFi TCP rate = %.1f, want ~707", wifi)
	}
	if math.Abs(g3-141) > 1 {
		t.Errorf("3G TCP rate = %.1f, want ~141", g3)
	}
}

func TestEWTCPClosedFormSec23(t *testing.T) {
	// "EWTCP ... will get total throughput (707+141)/2 = 424 pkt/s."
	w := EWTCPWindows(sec23p)
	total, _ := GoalThroughput(w, sec23p, sec23rtt)
	if math.Abs(total-424) > 2 {
		t.Errorf("EWTCP total = %.1f, want ~424", total)
	}
}

func TestCoupledClosedFormSec23(t *testing.T) {
	// "COUPLED will send all its traffic on the less congested path ...
	// total throughput 141 pkt/s." (plus the 1-packet probe floor on the
	// other path).
	w := CoupledWindows(sec23p)
	if w[0] != core.MinCwnd {
		t.Errorf("WiFi window = %v, want probe floor", w[0])
	}
	rate := w[1] / sec23rtt[1]
	if math.Abs(rate-141) > 2 {
		t.Errorf("COUPLED 3G rate = %.1f, want ~141", rate)
	}
}

func TestFluidMatchesClosedFormEWTCP(t *testing.T) {
	w := Equilibrium(core.EWTCP{}, sec23p, sec23rtt)
	want := EWTCPWindows(sec23p)
	for i := range w {
		if math.Abs(w[i]-want[i])/want[i] > 0.05 {
			t.Errorf("path %d: fluid %v vs closed form %v", i, w[i], want[i])
		}
	}
}

func TestFluidMatchesClosedFormSemiCoupled(t *testing.T) {
	// Loss rates chosen so every window stays above 2 packets — the
	// closed form ignores the MinCwnd floor that binds a loss at w < 2.
	p := []float64{0.005, 0.005, 0.02}
	rtt := []float64{0.1, 0.1, 0.1}
	w := Equilibrium(core.SemiCoupled{A: 1}, p, rtt)
	want := SemiCoupledWindows(1, p)
	for i := range w {
		if math.Abs(w[i]-want[i])/want[i] > 0.08 {
			t.Errorf("path %d: fluid %v vs closed form %v", i, w[i], want[i])
		}
	}
}

func TestSemiCoupledSplitExample(t *testing.T) {
	// §2.4: three paths at 1 %, 1 %, 5 % loss -> 45 %/45 %/10 % split.
	p := []float64{0.01, 0.01, 0.05}
	w := SemiCoupledWindows(1, p)
	tot := metrics.Sum(w)
	if frac := w[0] / tot; math.Abs(frac-0.45) > 0.02 {
		t.Errorf("less-congested share = %.3f, want ~0.45", frac)
	}
	if frac := w[2] / tot; math.Abs(frac-0.10) > 0.02 {
		t.Errorf("more-congested share = %.3f, want ~0.10", frac)
	}
}

func TestFluidCoupledPicksLeastCongested(t *testing.T) {
	// With the MinCwnd probing floor (§2.4), a loss on the congested
	// path decreases its window only to the floor, so the fluid
	// equilibrium keeps a small probe window there:
	//   w_total = √(2(1−p_min)/p_min)          (joint balance)
	//   w_0     = 1 + (1−p_0)/(p_0 · w_total)   (probe balance)
	p := []float64{0.02, 0.005}
	rtt := []float64{0.1, 0.1}
	w := Equilibrium(core.Coupled{}, p, rtt)
	wantTotal := math.Sqrt(2 * (1 - p[1]) / p[1])
	wantProbe := 1 + (1-p[0])/(p[0]*wantTotal)
	if math.Abs(w[0]-wantProbe)/wantProbe > 0.05 {
		t.Errorf("probe window = %v, want ~%v", w[0], wantProbe)
	}
	if total := metrics.Sum(w); math.Abs(total-wantTotal)/wantTotal > 0.05 {
		t.Errorf("total window = %v, want ~%v", total, wantTotal)
	}
	// The congested path carries a small fraction of the traffic.
	if w[0] > 0.25*w[1] {
		t.Errorf("congested path window %v not small vs %v", w[0], w[1])
	}
}

func TestMPTCPFluidSec23(t *testing.T) {
	// §2.5: MPTCP should achieve the best single-path rate (707 pkt/s)
	// on the WiFi/3G example — unlike EWTCP (424) and COUPLED (141).
	w := Equilibrium(&core.MPTCP{PerAck: true}, sec23p, sec23rtt)
	total, best := GoalThroughput(w, sec23p, sec23rtt)
	if total < best*0.85 {
		t.Errorf("MPTCP total %.1f pkt/s < 85%% of best single-path %.1f", total, best)
	}
	if harm := GoalNoHarm(w, sec23p, sec23rtt); harm > 1.15 {
		t.Errorf("MPTCP exceeds single-path take by %.2fx on some subset", harm)
	}
}

func TestMPTCPFluidEqualPaths(t *testing.T) {
	// n equal paths: MPTCP total should equal one TCP's window.
	for n := 1; n <= 4; n++ {
		p := make([]float64, n)
		rtt := make([]float64, n)
		for i := range p {
			p[i], rtt[i] = 0.01, 0.1
		}
		w := Equilibrium(&core.MPTCP{PerAck: true}, p, rtt)
		want := TCPWindow(0.01)
		if got := metrics.Sum(w); math.Abs(got-want)/want > 0.1 {
			t.Errorf("n=%d: total window %v, want ~%v", n, got, want)
		}
	}
}

// Property: across random loss rates and RTTs, the MPTCP fluid equilibrium
// satisfies the §2.5 fairness goals (3) and (4) within tolerance. This is
// the appendix's theorem, checked numerically.
func TestMPTCPFairnessGoalsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("fluid solver sweep is slow")
	}
	rng := rand.New(rand.NewSource(9))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		p := make([]float64, n)
		rtt := make([]float64, n)
		for i := range p {
			p[i] = 0.002 + r.Float64()*0.02  // 0.2%..2.2%
			rtt[i] = 0.02 + r.Float64()*0.48 // 20ms..500ms
		}
		w := Equilibrium(&core.MPTCP{PerAck: true}, p, rtt)
		total, best := GoalThroughput(w, p, rtt)
		if total < best*0.8 {
			t.Logf("goal(3) violated: total %.1f best %.1f p=%v rtt=%v", total, best, p, rtt)
			return false
		}
		if harm := GoalNoHarm(w, p, rtt); harm > 1.25 {
			t.Logf("goal(4) violated: harm %.2f p=%v rtt=%v", harm, p, rtt)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Error(err)
	}
}
