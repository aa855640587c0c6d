// Package model provides the analytic throughput models the paper uses to
// reason about multipath congestion control: the √(2/p) TCP window
// formula (eq. 2), closed-form equilibria for EWTCP/COUPLED/SEMICOUPLED,
// a fluid (expected-drift) Equilibrium solver for arbitrary
// core.Algorithm implementations, and checkers for the two fairness
// goals of §2.5 (GoalThroughput: do at least as well as a TCP on the
// best path; GoalNoHarm: take no more from any link than a single TCP
// would).
//
// The solver treats loss rates as fixed and exogenous, exactly as in the
// paper's §2.3 worked example (WiFi at 4 %, 3G at 1 %); the packet-level
// simulator in internal/netsim is used when losses must emerge from queue
// dynamics. Nothing outside tests imports this package: its tests
// cross-check the closed forms against the fluid solver and the paper's
// §2.3 numbers, and other packages' tests use it as the reference.
package model

import (
	"math"

	"mptcp/internal/core"
)

// TCPWindow returns the equilibrium window √(2/p), in packets, of a
// regular TCP under per-packet loss probability p (paper eq. (2)).
func TCPWindow(p float64) float64 {
	return math.Sqrt(2 / p)
}

// TCPRate returns the equilibrium rate of a regular TCP in packets per
// second: √(2/p)/RTT (§2.3).
func TCPRate(p, rttSec float64) float64 {
	return TCPWindow(p) / rttSec
}

// EWTCPWindows returns the closed-form equilibrium windows of EWTCP with
// per-subflow weight 1/n: w_r = √(2/p_r)/n.
func EWTCPWindows(p []float64) []float64 {
	n := float64(len(p))
	w := make([]float64, len(p))
	for i, pi := range p {
		w[i] = TCPWindow(pi) / n
	}
	return w
}

// SemiCoupledWindows returns §2.4's equilibrium for SEMICOUPLED with
// aggressiveness a: w_r = √(2a) · (1/p_r)/√(Σ 1/p_s).
func SemiCoupledWindows(a float64, p []float64) []float64 {
	sumInv := 0.0
	for _, pi := range p {
		sumInv += 1 / pi
	}
	w := make([]float64, len(p))
	for i, pi := range p {
		w[i] = math.Sqrt(2*a) * (1 / pi) / math.Sqrt(sumInv)
	}
	return w
}

// CoupledWindows returns COUPLED's equilibrium: total window √(2/p_min)
// placed entirely on minimum-loss paths (split equally among ties), floor
// core.MinCwnd elsewhere.
func CoupledWindows(p []float64) []float64 {
	pmin := math.Inf(1)
	for _, pi := range p {
		pmin = math.Min(pmin, pi)
	}
	var ties int
	for _, pi := range p {
		if pi == pmin {
			ties++
		}
	}
	w := make([]float64, len(p))
	total := TCPWindow(pmin)
	for i, pi := range p {
		if pi == pmin {
			w[i] = total / float64(ties)
		} else {
			w[i] = core.MinCwnd
		}
	}
	return w
}

// Equilibrium numerically solves the fluid (expected drift) equilibrium of
// alg under fixed per-path loss probabilities p and round-trip times rtt
// (seconds). The drift of subflow r is
//
//	dw_r/dt = (w_r/RTT_r)(1−p_r)·Increase(w, r) − (w_r/RTT_r)·p_r·(w_r − Decrease(w, r))
//
// integrated by damped Euler steps until windows stop moving. Windows are
// clamped at core.MinCwnd, matching the probing floor of §2.4.
func Equilibrium(alg core.Algorithm, p, rtt []float64) []float64 {
	n := len(p)
	subs := make([]core.Subflow, n)
	for i := range subs {
		subs[i] = core.Subflow{Cwnd: 10, SSThresh: math.Inf(1), SRTT: rtt[i]}
	}
	// dt scaled to the fastest control loop.
	minRTT := math.Inf(1)
	for _, r := range rtt {
		minRTT = math.Min(minRTT, r)
	}
	dt := minRTT / 50
	drift := make([]float64, n)
	for iter := 0; iter < 400000; iter++ {
		maxRel := 0.0
		for r := 0; r < n; r++ {
			w := subs[r].Cwnd
			ackRate := w / rtt[r] * (1 - p[r])
			lossRate := w / rtt[r] * p[r]
			inc := alg.Increase(subs, r)
			dec := w - alg.Decrease(subs, r)
			drift[r] = ackRate*inc - lossRate*dec
		}
		for r := 0; r < n; r++ {
			w := subs[r].Cwnd + drift[r]*dt
			if w < core.MinCwnd {
				w = core.MinCwnd
			}
			rel := math.Abs(w-subs[r].Cwnd) / subs[r].Cwnd
			maxRel = math.Max(maxRel, rel)
			subs[r].Cwnd = w
		}
		if maxRel < 1e-9 && iter > 1000 {
			break
		}
	}
	w := make([]float64, n)
	for i := range subs {
		w[i] = subs[i].Cwnd
	}
	return w
}

// GoalThroughput checks §2.5 goal (3): the multipath flow's total rate is
// at least the best single-path TCP's rate, within fractional tolerance
// tol. It returns the two rates.
func GoalThroughput(w, p, rtt []float64) (total, bestTCP float64) {
	for i := range w {
		total += w[i] / rtt[i]
		bestTCP = math.Max(bestTCP, TCPRate(p[i], rtt[i]))
	}
	return total, bestTCP
}

// GoalNoHarm checks §2.5 goal (4) for every subset S: the multipath flow's
// rate summed over S never exceeds the best single-path TCP rate within S.
// It returns the largest violation ratio (≤ 1 means the goal holds).
func GoalNoHarm(w, p, rtt []float64) float64 {
	n := len(w)
	worst := 0.0
	for mask := 1; mask < 1<<n; mask++ {
		var sum, best float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			sum += w[i] / rtt[i]
			best = math.Max(best, TCPRate(p[i], rtt[i]))
		}
		worst = math.Max(worst, sum/best)
	}
	return worst
}
