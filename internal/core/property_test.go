package core

import (
	"math"
	"math/rand"
	"testing"
)

// aimdEquilibrium drives alg through a simple per-round AIMD loss model
// and returns each subflow's time-averaged window over the second half
// of the run. Per round and per subflow, a loss event arrives with
// probability 1-(1-p_r)^w_r (at least one of the w_r packets in flight
// is dropped); on loss the window takes alg.Decrease, otherwise it earns
// w_r per-ACK increases and is floored at MinCwnd (wVegas's epoch delta
// can be negative). The optional hooks are wired as the protocol core
// wires them: every round feeds the path RTT through OnRTTSample, and
// every loss event fires OnLoss before Decrease. The seeded generator
// makes the trajectory deterministic, so thresholds asserted against it
// are stable.
func aimdEquilibrium(alg Algorithm, loss, rtt []float64, rounds int, seed int64) []float64 {
	s := make([]Subflow, len(loss))
	for i := range s {
		s[i] = Subflow{Cwnd: 1, SSThresh: math.Inf(1), SRTT: rtt[i]}
	}
	rttObs, _ := alg.(RTTObserver)
	lossObs, _ := alg.(LossObserver)
	rng := rand.New(rand.NewSource(seed))
	avg := make([]float64, len(s))
	samples := 0
	for round := 0; round < rounds; round++ {
		for r := range s {
			if rttObs != nil {
				rttObs.OnRTTSample(s, r, rtt[r])
			}
			w := int(s[r].Cwnd)
			if w < 1 {
				w = 1
			}
			if rng.Float64() < 1-math.Pow(1-loss[r], float64(w)) {
				if lossObs != nil {
					lossObs.OnLoss(s, r)
				}
				s[r].Cwnd = alg.Decrease(s, r)
			} else {
				for k := 0; k < w; k++ {
					s[r].Cwnd += alg.Increase(s, r)
				}
				s[r].Cwnd = floorMin(s[r].Cwnd)
			}
		}
		if round >= rounds/2 {
			for r := range s {
				avg[r] += s[r].Cwnd
			}
			samples++
		}
	}
	for r := range avg {
		avg[r] /= float64(samples)
	}
	return avg
}

// TestAlgorithmProperties checks the paper's defining behavioural claim
// for each algorithm, one subtest per algorithm: MPTCP's increase obeys
// the 1/w_r cap of eq. (1) (§2.5), COUPLED moves its window onto the
// least-congested path (§2.2), and EWTCP splits evenly across symmetric
// paths (§2.1).
func TestAlgorithmProperties(t *testing.T) {
	tests := []struct {
		name  string
		check func(t *testing.T)
	}{
		{
			name: "MPTCP/increase-never-exceeds-1-over-wr",
			check: func(t *testing.T) {
				rng := rand.New(rand.NewSource(11))
				for _, alg := range []*MPTCP{{PerAck: true}, {}} {
					for trial := 0; trial < 500; trial++ {
						n := 1 + rng.Intn(4)
						s := make([]Subflow, n)
						for i := range s {
							s[i] = Subflow{
								Cwnd: 0.5 + rng.Float64()*200,
								SRTT: 0.005 + rng.Float64()*0.8,
							}
						}
						for r := 0; r < n; r++ {
							inc := alg.Increase(s, r)
							w := s[r].Cwnd
							if w < MinCwnd {
								w = MinCwnd
							}
							if inc > 1/w+1e-12 {
								t.Fatalf("PerAck=%v trial %d subflow %d: increase %v exceeds cap 1/w=%v (state %+v)",
									alg.PerAck, trial, r, inc, 1/w, s)
							}
						}
					}
				}
			},
		},
		{
			name: "COUPLED/shifts-window-to-least-congested-path",
			check: func(t *testing.T) {
				// Path 0 is 10× less congested than path 1; at COUPLED's
				// equilibrium essentially all window sits on path 0, with
				// path 1 pinned near the MinCwnd probe floor (§2.4).
				avg := aimdEquilibrium(Coupled{}, []float64{0.002, 0.02}, []float64{0.1, 0.1}, 40000, 5)
				if avg[0] < 4*avg[1] {
					t.Errorf("windows (%.2f, %.2f): least-congested path should dominate", avg[0], avg[1])
				}
				// Flipping the loss rates must flip the allocation: the
				// shift tracks congestion, not path index.
				flipped := aimdEquilibrium(Coupled{}, []float64{0.02, 0.002}, []float64{0.1, 0.1}, 40000, 5)
				if flipped[1] < 4*flipped[0] {
					t.Errorf("flipped windows (%.2f, %.2f): allocation did not follow congestion", flipped[0], flipped[1])
				}
			},
		},
		{
			name: "EWTCP/splits-equally-on-symmetric-paths",
			check: func(t *testing.T) {
				avg := aimdEquilibrium(EWTCP{}, []float64{0.01, 0.01}, []float64{0.1, 0.1}, 40000, 7)
				ratio := avg[0] / avg[1]
				if ratio < 0.75 || ratio > 1/0.75 {
					t.Errorf("windows (%.2f, %.2f), ratio %.2f: symmetric paths should split evenly", avg[0], avg[1], ratio)
				}
				// And each path carries a real share, not a probe floor.
				for r, w := range avg {
					if w < 2*MinCwnd {
						t.Errorf("path %d window %.2f stuck at the floor", r, w)
					}
				}
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, tc.check)
	}
}

// TestOLIAProperties checks OLIA's defining behaviour: it favours the
// best (least-congested) paths without starving the others — every path
// keeps real probe traffic, unlike COUPLED, which pins losers at the
// window floor.
func TestOLIAProperties(t *testing.T) {
	t.Run("single-path-reduces-to-TCP", func(t *testing.T) {
		alg := &OLIA{}
		s := []Subflow{{Cwnd: 16, SRTT: 0.1}}
		if got := alg.Increase(s, 0); math.Abs(got-1.0/16) > 1e-12 {
			t.Errorf("increase = %v, want 1/16", got)
		}
		if got := alg.Decrease(s, 0); got != 8 {
			t.Errorf("decrease -> %v, want 8", got)
		}
	})
	t.Run("favours-least-congested-path", func(t *testing.T) {
		// Path 0 is 10× less congested: its window must dominate, and
		// flipping the loss rates must flip the allocation.
		avg := aimdEquilibrium(&OLIA{}, []float64{0.002, 0.02}, []float64{0.1, 0.1}, 40000, 5)
		if avg[0] < 1.5*avg[1] {
			t.Errorf("windows (%.2f, %.2f): best path should dominate", avg[0], avg[1])
		}
		flipped := aimdEquilibrium(&OLIA{}, []float64{0.02, 0.002}, []float64{0.1, 0.1}, 40000, 5)
		if flipped[1] < 1.5*flipped[0] {
			t.Errorf("flipped windows (%.2f, %.2f): allocation did not follow congestion", flipped[0], flipped[1])
		}
	})
	t.Run("keeps-probe-traffic-on-the-worse-path", func(t *testing.T) {
		// The 10×-worse path must still carry a measurable window above
		// the MinCwnd probe floor: OLIA halves on loss instead of
		// slamming to the floor, so the path keeps oscillating and its
		// loss rate stays observable (never write a path off).
		avg := aimdEquilibrium(&OLIA{}, []float64{0.002, 0.02}, []float64{0.1, 0.1}, 40000, 5)
		if avg[1] < 1.4*MinCwnd {
			t.Errorf("worse path window %.2f stuck at the probe floor", avg[1])
		}
	})
	t.Run("alpha-steers-window-toward-best-small-path", func(t *testing.T) {
		// The Pareto fix itself: when the presumed-best path (largest
		// inter-loss distance) does not hold the largest window, it gets
		// the +1/(n·|B\M|) boost and the max-window path pays
		// −1/(n·|M|), re-routing window toward the better path.
		alg := &OLIA{}
		s := []Subflow{{Cwnd: 50, SRTT: 0.1}, {Cwnd: 2, SRTT: 0.1}}
		for i := 0; i < 10; i++ {
			alg.Increase(s, 0)
		}
		for i := 0; i < 100; i++ {
			alg.Increase(s, 1) // path 1: 10× the inter-loss distance, tiny window
		}
		if got, want := alg.alpha(s, 1), 0.5; math.Abs(got-want) > 1e-12 {
			t.Errorf("best small path alpha = %v, want +1/(n·|B\\M|) = %v", got, want)
		}
		if got, want := alg.alpha(s, 0), -0.5; math.Abs(got-want) > 1e-12 {
			t.Errorf("max-window path alpha = %v, want −1/(n·|M|) = %v", got, want)
		}
		// With the best path also holding the largest window, B\M is
		// empty and no window is re-routed.
		alg2 := &OLIA{}
		for i := 0; i < 100; i++ {
			alg2.Increase(s, 0)
		}
		if got := alg2.alpha(s, 0); got != 0 {
			t.Errorf("alpha = %v when B ⊆ M, want 0", got)
		}
	})
	t.Run("splits-equally-on-symmetric-paths", func(t *testing.T) {
		avg := aimdEquilibrium(&OLIA{}, []float64{0.01, 0.01}, []float64{0.1, 0.1}, 40000, 7)
		ratio := avg[0] / avg[1]
		if ratio < 0.7 || ratio > 1/0.7 {
			t.Errorf("windows (%.2f, %.2f), ratio %.2f: symmetric paths should split evenly", avg[0], avg[1], ratio)
		}
	})
	t.Run("interloss-state-follows-losses", func(t *testing.T) {
		alg := &OLIA{}
		s := []Subflow{{Cwnd: 10, SRTT: 0.1}, {Cwnd: 10, SRTT: 0.1}}
		for i := 0; i < 5; i++ {
			alg.Increase(s, 0)
		}
		if alg.interLoss(0) != 5 {
			t.Fatalf("interLoss = %v after 5 ACKs, want 5", alg.interLoss(0))
		}
		alg.OnLoss(s, 0)
		// The previous inter-loss window is retained (max of the two),
		// so one loss does not write the path's estimate off.
		if alg.interLoss(0) != 5 {
			t.Errorf("interLoss = %v right after a loss, want previous window 5", alg.interLoss(0))
		}
		for i := 0; i < 9; i++ {
			alg.Increase(s, 0)
		}
		if alg.interLoss(0) != 9 {
			t.Errorf("interLoss = %v, want the larger recent window 9", alg.interLoss(0))
		}
	})
}

// TestBALIAProperties pins BALIA to its documented bounds: the increase
// is the RTT-compensated coupled term scaled by (1+α)(4+α)/10 ≥ 1
// (exactly 1 on the fastest path), the decrease removes between a
// quarter and half of the window (multiplier min(α,1.5)/2 ∈ [1/2,3/4]),
// and a single subflow behaves exactly like NewReno.
func TestBALIAProperties(t *testing.T) {
	alg := BALIA{}
	t.Run("single-path-reduces-to-TCP", func(t *testing.T) {
		s := []Subflow{{Cwnd: 20, SRTT: 0.05}}
		if got := alg.Increase(s, 0); math.Abs(got-1.0/20) > 1e-12 {
			t.Errorf("increase = %v, want 1/20", got)
		}
		if got := alg.Decrease(s, 0); got != 10 {
			t.Errorf("decrease -> %v, want 10", got)
		}
	})
	t.Run("symmetric-paths-closed-form", func(t *testing.T) {
		// Equal windows and RTTs: α = 1 for every path, the scale factor
		// is exactly 1, and the RTTs cancel, leaving 1/(n²·w) — the same
		// value MPTCP's eq. (1) gives on symmetric paths.
		s := []Subflow{{Cwnd: 10, SRTT: 0.1}, {Cwnd: 10, SRTT: 0.1}}
		want := 1.0 / (4 * 10)
		for r := 0; r < 2; r++ {
			if got := alg.Increase(s, r); math.Abs(got-want) > 1e-12 {
				t.Errorf("subflow %d increase = %v, want %v", r, got, want)
			}
		}
	})
	t.Run("bounds-hold-on-random-states", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 500; trial++ {
			n := 2 + rng.Intn(3)
			s := make([]Subflow, n)
			for i := range s {
				s[i] = Subflow{
					Cwnd: 1 + rng.Float64()*199,
					SRTT: 0.01 + rng.Float64()*0.49,
				}
			}
			// The fastest path (max w/rtt) has α = 1: its increase is
			// exactly the coupled base term.
			best, bestX := 0, 0.0
			for i := range s {
				if x := s[i].Cwnd / s[i].SRTT; x > bestX {
					best, bestX = i, x
				}
			}
			sum := 0.0
			for i := range s {
				sum += s[i].Cwnd / s[i].SRTT
			}
			for r := 0; r < n; r++ {
				base := (s[r].Cwnd / (s[r].SRTT * s[r].SRTT)) / (sum * sum)
				inc := alg.Increase(s, r)
				if inc < base-1e-12 {
					t.Fatalf("trial %d subflow %d: increase %v below coupled base %v", trial, r, inc, base)
				}
				if r == best && math.Abs(inc-base) > 1e-9*base {
					t.Fatalf("trial %d: fastest path increase %v != base %v", trial, inc, base)
				}
				dec := alg.Decrease(s, r)
				lo := math.Max(MinCwnd, s[r].Cwnd/4)
				hi := math.Max(MinCwnd, s[r].Cwnd/2)
				if dec < lo-1e-9 || dec > hi+1e-9 {
					t.Fatalf("trial %d subflow %d: decrease -> %v outside [%v, %v]", trial, r, dec, lo, hi)
				}
			}
		}
	})
	t.Run("splits-equally-on-symmetric-paths", func(t *testing.T) {
		avg := aimdEquilibrium(BALIA{}, []float64{0.01, 0.01}, []float64{0.1, 0.1}, 40000, 11)
		ratio := avg[0] / avg[1]
		if ratio < 0.7 || ratio > 1/0.7 {
			t.Errorf("windows (%.2f, %.2f), ratio %.2f: symmetric paths should split evenly", avg[0], avg[1], ratio)
		}
	})
}

// TestWVegasQueuingDelayBackoff drives wVegas directly through its
// hook + epoch machinery: while RTT samples sit at the propagation
// delay the window gains one packet per RTT; once queuing delay pushes
// the estimated backlog past the path's α share, the epoch's net window
// delta turns negative, stepping down to w·baseRTT/rtt.
func TestWVegasQueuingDelayBackoff(t *testing.T) {
	alg := &WVegas{}
	s := []Subflow{
		{Cwnd: 20, SSThresh: math.Inf(1), SRTT: 0.1},
		{Cwnd: 20, SSThresh: math.Inf(1), SRTT: 0.1},
	}
	epoch := func(rtt float64) float64 {
		for i := 0; i < 5; i++ {
			alg.OnRTTSample(s, 0, rtt)
		}
		delta := 0.0
		for i := 0; i < int(s[0].Cwnd); i++ {
			delta += alg.Increase(s, 0)
		}
		return delta
	}

	// Epoch 1 pins baseRTT at 100 ms; with zero queuing delay the window
	// grows by exactly one packet per RTT.
	if d := epoch(0.1); d != 1 {
		t.Errorf("no-queue epoch delta = %v, want +1", d)
	}
	// Mild queuing (2 ms) stays below the α share: still growing.
	if d := epoch(0.102); d != 1 {
		t.Errorf("mild-queue epoch delta = %v, want +1", d)
	}
	// Heavy queuing: rtt 2.5× baseRTT means diff = 20·0.15/0.25 = 12
	// packets queued, past α = weight·totalAlpha = 5; the window steps
	// down to w·baseRTT/rtt = 8.
	d := epoch(0.25)
	if d >= 0 {
		t.Fatalf("queue-growth epoch delta = %v, want negative backoff", d)
	}
	if want := 20*0.1/0.25 - 20; math.Abs(d-want) > 1e-9 {
		t.Errorf("backoff delta = %v, want %v", d, want)
	}

	t.Run("loss-resets-the-epoch", func(t *testing.T) {
		fresh := &WVegas{}
		ss := []Subflow{{Cwnd: 4, SSThresh: math.Inf(1), SRTT: 0.1}}
		fresh.OnRTTSample(ss, 0, 0.1)
		fresh.Increase(ss, 0) // partial epoch: 1 of 4 ACKs
		fresh.OnLoss(ss, 0)
		if st := fresh.st[0]; st.acked != 0 || st.cnt != 0 || st.sumRTT != 0 {
			t.Errorf("epoch state %+v not reset on loss", st)
		}
		if got := fresh.Decrease(ss, 0); got != 2 {
			t.Errorf("loss decrease -> %v, want halving to 2", got)
		}
	})

	t.Run("single-path-epoch-matches-vegas", func(t *testing.T) {
		// One path owns the whole totalAlpha budget: backoff only when
		// more than 10 packets sit queued.
		one := &WVegas{}
		ss := []Subflow{{Cwnd: 30, SSThresh: math.Inf(1), SRTT: 0.1}}
		for i := 0; i < 3; i++ {
			one.OnRTTSample(ss, 0, 0.1)
		}
		for i := 0; i < 30; i++ {
			one.Increase(ss, 0)
		}
		// diff = 30·(0.12−0.1)/0.12 = 5 < 10: keep growing.
		for i := 0; i < 3; i++ {
			one.OnRTTSample(ss, 0, 0.12)
		}
		delta := 0.0
		for i := 0; i < 30; i++ {
			delta += one.Increase(ss, 0)
		}
		if delta != 1 {
			t.Errorf("below-budget epoch delta = %v, want +1", delta)
		}
	})
}
