package core

// BALIA is the Balanced Linked Adaptation algorithm of Peng, Walid,
// Hickey & Low ("Multipath TCP: Analysis, Design, and Implementation",
// ToN 2016; Linux mptcp_balia.c), designed to balance TCP-friendliness
// against responsiveness between LIA's and OLIA's operating points.
// With per-path rates x_k = w_k/rtt_k and α_r = max_k(x_k)/x_r (α_r ≥ 1,
// equal to 1 on the fastest path), each ACK on subflow r increases the
// window by
//
//	w_r/rtt_r² / (Σ_k x_k)² · (1+α_r)/2 · (4+α_r)/5
//
// and each loss on r decreases it to
//
//	w_r · (1 − min(α_r, 1.5)/2).
//
// The increase factor (1+α)(4+α)/10 is exactly 1 on the best path
// (recovering the RTT-compensated coupled increase) and grows for
// slower paths, keeping probe traffic alive there; the decrease removes
// a min(α,1.5)/2 ∈ [1/2, 3/4] fraction of the window, so the window
// left after a loss is between w_r/4 and w_r/2 — slower paths back off
// harder. With a single subflow both rules reduce to
// NewReno (increase 1/w, halve on loss). BALIA is stateless — pure
// window arithmetic over the shared congestion state, no hooks.
type BALIA struct{}

func (BALIA) Name() string { return "BALIA" }

// alphaAndSum returns α_r = max_k(x_k)/x_r and Σ_k x_k.
func (BALIA) alphaAndSum(subs []Subflow, r int) (alpha, sum float64) {
	maxX := 0.0
	for i := range subs {
		x := floorMin(subs[i].Cwnd) / subs[i].rtt()
		sum += x
		if x > maxX {
			maxX = x
		}
	}
	xr := floorMin(subs[r].Cwnd) / subs[r].rtt()
	return maxX / xr, sum
}

func (b BALIA) Increase(subs []Subflow, r int) float64 {
	if len(subs) == 1 {
		return 1 / floorMin(subs[0].Cwnd)
	}
	alpha, sum := b.alphaAndSum(subs, r)
	wr := floorMin(subs[r].Cwnd)
	rtt := subs[r].rtt()
	return (wr / (rtt * rtt)) / (sum * sum) * ((1 + alpha) / 2) * ((4 + alpha) / 5)
}

func (b BALIA) Decrease(subs []Subflow, r int) float64 {
	w := subs[r].Cwnd
	if len(subs) == 1 {
		w /= 2
	} else {
		alpha, _ := b.alphaAndSum(subs, r)
		if alpha > 1.5 {
			alpha = 1.5
		}
		w *= 1 - alpha/2
	}
	return floorMin(w)
}
