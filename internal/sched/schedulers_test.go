package sched

import "testing"

// v is a test-view shorthand: a sendable subflow with the given window,
// in-flight count and smoothed RTT.
func v(cwnd float64, inflight int64, srtt float64) View {
	return View{Cwnd: cwnd, Inflight: inflight, SRTT: srtt, Sendable: true}
}

func pick(t *testing.T, s Scheduler, ctx Ctx, subs []View) int {
	t.Helper()
	return s.Pick(ctx, subs)
}

func TestViewSpace(t *testing.T) {
	if !(View{Cwnd: 2, Inflight: 1, Sendable: true}).Space() {
		t.Error("room in window should have space")
	}
	if (View{Cwnd: 2, Inflight: 2, Sendable: true}).Space() {
		t.Error("full window should not have space")
	}
	if (View{Cwnd: 8, Inflight: 0, Sendable: false}).Space() {
		t.Error("unsendable subflow should not have space")
	}
	// Fractional windows floor, but never below one packet.
	if !(View{Cwnd: 0.3, Inflight: 0, Sendable: true}).Space() {
		t.Error("sub-packet cwnd still permits one in flight")
	}
	if (View{Cwnd: 0.3, Inflight: 1, Sendable: true}).Space() {
		t.Error("sub-packet cwnd permits only one in flight")
	}
}

func TestFirstFitPicksLowestIndexWithSpace(t *testing.T) {
	s := FirstFit{}
	if got := pick(t, s, Ctx{}, []View{v(2, 2, 0.01), v(2, 0, 0.5)}); got != 1 {
		t.Errorf("full sf0 should be skipped: got %d", got)
	}
	if got := pick(t, s, Ctx{}, []View{v(2, 1, 0.5), v(2, 0, 0.01)}); got != 0 {
		t.Errorf("firstfit ignores RTT: got %d", got)
	}
	if got := pick(t, s, Ctx{}, []View{v(2, 2, 0), v(1, 1, 0)}); got != -1 {
		t.Errorf("no space anywhere: got %d", got)
	}
}

func TestMinRTTPrefersLowerSRTT(t *testing.T) {
	s := MinRTT{}
	if got := pick(t, s, Ctx{}, []View{v(4, 0, 0.100), v(4, 0, 0.010)}); got != 1 {
		t.Errorf("lower srtt should win: got %d", got)
	}
	// Unmeasured (SRTT 0) ranks slowest.
	if got := pick(t, s, Ctx{}, []View{v(4, 0, 0), v(4, 0, 0.2)}); got != 1 {
		t.Errorf("measured beats unmeasured: got %d", got)
	}
	// All unmeasured: lowest index.
	if got := pick(t, s, Ctx{}, []View{v(4, 0, 0), v(4, 0, 0)}); got != 0 {
		t.Errorf("tie goes to lowest index: got %d", got)
	}
	// The fast subflow without space loses to a slower one with space.
	if got := pick(t, s, Ctx{}, []View{v(2, 2, 0.010), v(4, 0, 0.100)}); got != 1 {
		t.Errorf("window-limited fast path must be skipped: got %d", got)
	}
}

func TestRoundRobinBalancesBySent(t *testing.T) {
	s := RoundRobin{}
	a, b := v(8, 0, 0.01), v(8, 0, 0.5)
	a.Sent, b.Sent = 10, 3
	if got := pick(t, s, Ctx{}, []View{a, b}); got != 1 {
		t.Errorf("least-sent should win: got %d", got)
	}
	b.Sent = 10
	if got := pick(t, s, Ctx{}, []View{a, b}); got != 0 {
		t.Errorf("tie goes to lowest index: got %d", got)
	}
}

func TestWeightedCwndPrefersMostFreeWindow(t *testing.T) {
	s := WeightedCwnd{}
	if got := pick(t, s, Ctx{}, []View{v(4, 3, 0.01), v(10, 2, 0.5)}); got != 1 {
		t.Errorf("largest free window should win: got %d", got)
	}
	if got := pick(t, s, Ctx{}, []View{v(6, 1, 0.5), v(6, 3, 0.01)}); got != 0 {
		t.Errorf("free window 5 beats 3: got %d", got)
	}
}

func TestRedundantDuplicatesAndPicksFirstFit(t *testing.T) {
	// The sender duplicates when its scheduler is a Redundant value, so
	// the catalogue must build exactly that type.
	if _, ok := MustNew("redundant").(Redundant); !ok {
		t.Fatal("New(redundant) must build a Redundant value")
	}
	s := Redundant{}
	if got := pick(t, s, Ctx{}, []View{v(2, 0, 0.5), v(2, 0, 0.01)}); got != 0 {
		t.Errorf("redundant pick is first-fit: got %d", got)
	}
}

func TestBLESTDegeneratesToMinRTTWhenUnconstrained(t *testing.T) {
	s := MustNew("blest")
	wide := Ctx{Window: 1 << 20}
	if got := pick(t, s, wide, []View{v(4, 0, 0.100), v(4, 0, 0.010)}); got != 1 {
		t.Errorf("blest should behave like minrtt: got %d", got)
	}
	// Fast path window-limited, huge buffer headroom: send on slow path.
	if got := pick(t, s, wide, []View{v(2, 2, 0.010), v(4, 0, 0.100)}); got != 1 {
		t.Errorf("unconstrained blest must not wait: got %d", got)
	}
}

func TestBLESTWaitsWhenSlowPathWouldBlock(t *testing.T) {
	s := MustNew("blest")
	// Fast subflow full (cwnd 10, 10 in flight, 10 ms); slow subflow has
	// space but 10× the RTT. While a slow segment is in flight the fast
	// path wants ~10 × 10 × 1.25 = 125 buffer slots; headroom of 20 is
	// not enough, so BLEST must send nothing.
	subs := []View{v(10, 10, 0.010), v(4, 0, 0.100)}
	if got := pick(t, s, Ctx{Window: 20}, subs); got != -1 {
		t.Errorf("blest should wait for the fast path: got %d", got)
	}
	// With generous headroom the same pick proceeds on the slow path.
	if got := pick(t, s, Ctx{Window: 500}, subs); got != 1 {
		t.Errorf("ample headroom should send on the slow path: got %d", got)
	}
}

func TestBLESTDoesNotWaitForUnsendableFastPath(t *testing.T) {
	s := MustNew("blest")
	// The fast subflow is in loss recovery (Sendable false): it is not
	// worth waiting for, even under a tight buffer — otherwise a dead
	// fast path would stall new data forever.
	fast := View{Cwnd: 10, Inflight: 1, SRTT: 0.010, Sendable: false}
	if got := pick(t, s, Ctx{Window: 20}, []View{fast, v(4, 0, 0.100)}); got != 1 {
		t.Errorf("blest must not wait for a recovering subflow: got %d", got)
	}
}

func TestBLESTSkipsEstimateWithoutRTTs(t *testing.T) {
	s := MustNew("blest")
	// No RTT samples anywhere: no estimate is possible, send on the
	// candidate rather than stall a cold connection.
	if got := pick(t, s, Ctx{Window: 4}, []View{v(2, 2, 0), v(4, 0, 0)}); got != 1 {
		t.Errorf("cold blest should send: got %d", got)
	}
}
