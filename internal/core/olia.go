package core

// OLIA is the Opportunistic Linked-Increases Algorithm of Khalili,
// Gast, Popović & Le Boudec ("MPTCP is not Pareto-optimal", CoNEXT'12;
// Linux mptcp_olia.c). It fixes LIA/MPTCP's non-Pareto-optimality: upon
// each ACK on subflow r the window grows by
//
//	w_r/rtt_r² / (Σ_k w_k/rtt_k)²  +  α_r/w_r
//
// and halves on loss. The first term is the RTT-compensated coupled
// increase (it balances congestion); α_r opportunistically re-routes
// window between paths. With B the set of presumed-best paths (largest
// inter-loss distance per RTT, i.e. lowest estimated loss rate ℓ_r ≈
// 1/p_r, ranked by ℓ_r²/rtt_r²) and M the set of paths with the largest
// window:
//
//	α_r = +1/(n·|B\M|)  if r is a best path without a maximal window,
//	α_r = −1/(n·|M|)    if r has a maximal window and B\M is non-empty,
//	α_r = 0             otherwise.
//
// Best paths with small windows get extra probe traffic; saturated
// paths give a little back — so every path keeps measurable probe
// traffic while the windows drift toward the best paths.
//
// OLIA estimates ℓ_r from per-loss-event state: the ACKs counted since
// the last loss on r and between the two preceding losses (the larger
// of the two, so a path is not written off the instant a loss hits). It
// therefore implements the LossObserver hook; RTTs come from the
// smoothed estimates the transport already maintains in Subflow.
type OLIA struct {
	l1 []float64 // packets ACKed on r since the last loss on r
	l0 []float64 // packets ACKed between the two preceding losses on r
}

func (*OLIA) Name() string { return "OLIA" }

func (o *OLIA) ensure(n int) {
	for len(o.l1) < n {
		o.l1 = append(o.l1, 0)
		o.l0 = append(o.l0, 0)
	}
}

// interLoss is the inter-loss distance estimate ℓ_r in packets, at
// least 1 so a freshly started path ranks by RTT alone.
func (o *OLIA) interLoss(r int) float64 {
	l := o.l1[r]
	if o.l0[r] > l {
		l = o.l0[r]
	}
	if l < 1 {
		l = 1
	}
	return l
}

func (o *OLIA) Increase(subs []Subflow, r int) float64 {
	n := len(subs)
	o.ensure(n)
	o.l1[r]++ // one more ACK since the last loss on r
	if n == 1 {
		return 1 / floorMin(subs[0].Cwnd)
	}
	den := 0.0
	for i := range subs {
		den += floorMin(subs[i].Cwnd) / subs[i].rtt()
	}
	wr := floorMin(subs[r].Cwnd)
	rtt := subs[r].rtt()
	return (wr/(rtt*rtt))/(den*den) + o.alpha(subs, r)/wr
}

// alpha computes α_r from the current best-path and max-window sets.
// Set membership uses a small relative tolerance so exactly-equal
// floating-point windows tie rather than flap.
func (o *OLIA) alpha(subs []Subflow, r int) float64 {
	const tol = 1 - 1e-9
	n := len(subs)
	bestQual, maxW := 0.0, 0.0
	for i := range subs {
		if q := o.quality(subs, i); q > bestQual {
			bestQual = q
		}
		if w := floorMin(subs[i].Cwnd); w > maxW {
			maxW = w
		}
	}
	var nBnotM, nM int
	rInBnotM, rInM := false, false
	for i := range subs {
		inM := floorMin(subs[i].Cwnd) >= maxW*tol
		inB := o.quality(subs, i) >= bestQual*tol
		if inM {
			nM++
			if i == r {
				rInM = true
			}
		}
		if inB && !inM {
			nBnotM++
			if i == r {
				rInBnotM = true
			}
		}
	}
	if nBnotM == 0 {
		return 0
	}
	switch {
	case rInBnotM:
		return 1 / (float64(n) * float64(nBnotM))
	case rInM:
		return -1 / (float64(n) * float64(nM))
	}
	return 0
}

// quality ranks paths by ℓ_r²/rtt_r², proportional to the square of the
// rate a single-path TCP would achieve there (√(2/p_r)/rtt_r with
// p_r ≈ 1/ℓ_r) — the OLIA paper's "best paths" criterion.
func (o *OLIA) quality(subs []Subflow, i int) float64 {
	l := o.interLoss(i)
	rtt := subs[i].rtt()
	return (l * l) / (rtt * rtt)
}

func (o *OLIA) Decrease(subs []Subflow, r int) float64 {
	return floorMin(subs[r].Cwnd / 2)
}

// OnLoss rotates the inter-loss counters: the window that just ended
// becomes the previous one and a new count starts.
func (o *OLIA) OnLoss(subs []Subflow, r int) {
	o.ensure(len(subs))
	o.l0[r] = o.l1[r]
	o.l1[r] = 0
}

var _ LossObserver = (*OLIA)(nil)
