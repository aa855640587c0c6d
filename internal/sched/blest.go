package sched

// blestLambda is the window-growth slack factor of the blocking
// estimate: the fast subflow is assumed to grow its window by up to
// this factor while the slow subflow's segment is in flight (BLEST's λ;
// the original adapts it, we keep the recommended starting value).
const blestLambda = 1.25

// BLEST is a blocking-estimation scheduler in the style of Ferlin et
// al.: it behaves like MinRTT while the fast subflow has window space,
// but when only a slower subflow could send, it first estimates whether
// parking a segment on the slow path would head-of-line-block the
// shared receive buffer.
//
// The estimate: a segment sent on the slow subflow occupies the receive
// buffer for about one slow-path RTT. During that time the fast subflow
// can deliver roughly cwnd_fast × (srtt_slow / srtt_fast) × λ segments,
// all of which must also fit in the buffer behind the slow segment. If
// the slow subflow's in-flight data plus that estimate exceed the
// connection's remaining flow-control headroom (Ctx.Window), sending
// now would stall the fast path — so BLEST sends nothing and waits for
// the fast subflow's window to reopen instead.
//
// Two practical guards keep BLEST live: a fast subflow that is in loss
// recovery or post-RTO repair (View.Sendable false) is not worth
// waiting for, and when either RTT is still unmeasured the estimate is
// skipped. With an unconstrained receive buffer the estimate never
// binds and BLEST degenerates to MinRTT exactly.
type BLEST struct{}

// Name implements Scheduler.
func (*BLEST) Name() string { return "blest" }

// Pick implements Scheduler.
func (*BLEST) Pick(ctx Ctx, subs []View) int {
	cand := PickMinRTT(subs, -1)
	if cand < 0 {
		return -1
	}
	// The fast subflow we might be blocking: minimum SRTT among sendable
	// subflows, whether or not they have window space right now.
	fast := -1
	for i, v := range subs {
		if !v.Sendable {
			continue
		}
		if fast < 0 {
			fast = i
			continue
		}
		if v.SRTT > 0 && (subs[fast].SRTT == 0 || v.SRTT < subs[fast].SRTT) {
			fast = i
		}
	}
	if fast < 0 || fast == cand {
		return cand
	}
	vf, vc := subs[fast], subs[cand]
	if vf.Space() {
		// Unreachable in practice (cand is the min-RTT subflow *with*
		// space), kept for robustness against future pick changes.
		return fast
	}
	if vf.SRTT <= 0 || vc.SRTT <= 0 {
		return cand // no estimate without both RTTs
	}
	est := vf.Cwnd * (vc.SRTT / vf.SRTT) * blestLambda
	if float64(vc.Inflight+1)+est > float64(ctx.Window) {
		return -1 // would HoL-block the shared buffer: wait for fast path
	}
	return cand
}
