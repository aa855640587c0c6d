package sched

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestClassifierRanges(t *testing.T) {
	// Every classifier output must be a legal index for its dimension,
	// over a sweep of adversarial inputs.
	for _, srtt := range []float64{-1, 0, 0.001, 0.05, 0.2, 10} {
		for _, min := range []float64{-1, 0, 0.001, 0.05, 0.2} {
			if c := rttClass(srtt, min); c < 0 || c >= nRTT {
				t.Fatalf("rttClass(%g, %g) = %d out of range", srtt, min, c)
			}
		}
	}
	for _, free := range []int64{-5, 0, 1, 2, 7, 100} {
		for _, w := range []int64{-1, 0, 1, 4, 10, 1 << 40} {
			if c := headroomClass(free, w); c < 0 || c >= nHeadroom {
				t.Fatalf("headroomClass(%d, %d) = %d out of range", free, w, c)
			}
		}
	}
	for _, w := range []int64{-10, 0, 3, 4, 15, 16, 63, 64, 1 << 50} {
		if c := pressureClass(w); c < 0 || c >= nPressure {
			t.Fatalf("pressureClass(%d) = %d out of range", w, c)
		}
	}
}

func TestClassifierBoundaries(t *testing.T) {
	// The documented thresholds, exactly.
	if got := rttClass(0, 0.1); got != 0 {
		t.Errorf("unmeasured RTT class = %d, want 0", got)
	}
	if got := rttClass(0.1, 0); got != 1 {
		t.Errorf("only-measured RTT class = %d, want 1", got)
	}
	if got := rttClass(rttNear*0.1, 0.1); got != 1 {
		t.Errorf("ratio == rttNear class = %d, want 1", got)
	}
	if got := rttClass(rttFar*0.1, 0.1); got != 2 {
		t.Errorf("ratio == rttFar class = %d, want 2", got)
	}
	if got := rttClass(rttFar*0.1*1.01, 0.1); got != 3 {
		t.Errorf("ratio > rttFar class = %d, want 3", got)
	}
	if got := pressureClass(pressTight - 1); got != 0 {
		t.Errorf("pressureClass(%d) = %d, want 0", pressTight-1, got)
	}
	if got := pressureClass(pressLow - 1); got != 1 {
		t.Errorf("pressureClass(%d) = %d, want 1", pressLow-1, got)
	}
	if got := pressureClass(pressMid); got != 3 {
		t.Errorf("pressureClass(%d) = %d, want 3", pressMid, got)
	}
	if got := headroomClass(1, 4); got != 0 {
		t.Errorf("headroomClass(1, 4) = %d, want 0", got)
	}
	if got := headroomClass(2, 4); got != 1 {
		t.Errorf("headroomClass(2, 4) = %d, want 1", got)
	}
	if got := headroomClass(3, 4); got != 2 {
		t.Errorf("headroomClass(3, 4) = %d, want 2", got)
	}
}

func TestActionIndexBijective(t *testing.T) {
	seen := map[int]bool{}
	for r := 0; r < nRTT; r++ {
		for h := 0; h < nHeadroom; h++ {
			for p := 0; p < nPressure; p++ {
				idx := actionIndex(r, h, p)
				if idx < 0 || idx >= nActions {
					t.Fatalf("actionIndex(%d,%d,%d) = %d out of range", r, h, p, idx)
				}
				if seen[idx] {
					t.Fatalf("actionIndex(%d,%d,%d) = %d collides", r, h, p, idx)
				}
				seen[idx] = true
			}
		}
	}
	if len(seen) != nActions {
		t.Fatalf("actionIndex covers %d of %d buckets", len(seen), nActions)
	}
}

func TestActionIndexPanicsOutOfRange(t *testing.T) {
	for _, tc := range [][3]int{{-1, 0, 0}, {nRTT, 0, 0}, {0, nHeadroom, 0}, {0, 0, nPressure}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("actionIndex(%v) should panic", tc)
				}
			}()
			actionIndex(tc[0], tc[1], tc[2])
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("waitIndex(nPressure) should panic")
			}
		}()
		waitIndex(nPressure)
	}()
}

// randViews builds a random subflow slate: mixed measured/unmeasured
// RTTs, sendable and recovering subflows, full and free windows.
func randViews(rng *rand.Rand) []View {
	n := 1 + rng.Intn(5)
	subs := make([]View, n)
	for i := range subs {
		subs[i] = View{
			Cwnd:     float64(rng.Intn(40)),
			Inflight: int64(rng.Intn(40)),
			SRTT:     []float64{0, 0.01, 0.05, 0.3}[rng.Intn(4)] * (1 + rng.Float64()),
			Sendable: rng.Intn(4) != 0,
			Sent:     int64(rng.Intn(1000)),
		}
	}
	return subs
}

func randCtx(rng *rand.Rand) Ctx {
	return Ctx{Window: []int64{0, 1, 3, 5, 12, 40, 1 << 30}[rng.Intn(7)]}
}

// TestBanditNeverPicksBlockedSubflow is the core safety property: over a
// large random slate of states, Pick returns either -1 or a subflow with
// window space, never a blocked one — for the trained table and an
// untrained one.
func TestBanditNeverPicksBlockedSubflow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, b := range []Scheduler{MustNew("bandit"), Bandit{&banditTable{}}} {
		for trial := 0; trial < 20000; trial++ {
			ctx, subs := randCtx(rng), randViews(rng)
			i := b.Pick(ctx, subs)
			if i == -1 {
				continue
			}
			if i < 0 || i >= len(subs) {
				t.Fatalf("Pick returned out-of-range index %d for %d subflows", i, len(subs))
			}
			if !subs[i].Space() {
				t.Fatalf("Pick chose blocked subflow %d: %+v (ctx %+v)", i, subs[i], ctx)
			}
		}
	}
}

// TestBanditReturnsMinusOneWhenNothingSendable pins the no-candidate
// contract directly.
func TestBanditReturnsMinusOneWhenNothingSendable(t *testing.T) {
	b := MustNew("bandit")
	cases := [][]View{
		{},
		{{Cwnd: 10, Inflight: 10, SRTT: 0.01, Sendable: true}},                                      // window full
		{{Cwnd: 10, Inflight: 2, SRTT: 0.01, Sendable: false}},                                      // in recovery
		{{Cwnd: 0, Inflight: 1, Sendable: true}, {Cwnd: 4, Inflight: 4, SRTT: 0.1, Sendable: true}}, // all bound
	}
	for i, subs := range cases {
		if got := b.Pick(Ctx{Window: 100}, subs); got != -1 {
			t.Errorf("case %d: Pick = %d, want -1", i, got)
		}
	}
}

// TestBanditFrozenInferenceIsPure: a frozen bandit is a function — the
// same (ctx, subs) always yields the same pick, across repeated calls
// and across independently constructed instances, and Pick does not
// mutate its inputs.
func TestBanditFrozenInferenceIsPure(t *testing.T) {
	b1, b2 := MustNew("bandit"), MustNew("bandit")
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5000; trial++ {
		ctx, subs := randCtx(rng), randViews(rng)
		saved := append([]View(nil), subs...)
		first := b1.Pick(ctx, subs)
		for k := 0; k < 3; k++ {
			if got := b1.Pick(ctx, subs); got != first {
				t.Fatalf("repeat Pick differs: %d then %d (ctx %+v subs %+v)", first, got, ctx, subs)
			}
			if got := b2.Pick(ctx, subs); got != first {
				t.Fatalf("sibling instance differs: %d vs %d", got, first)
			}
		}
		if !reflect.DeepEqual(saved, subs) {
			t.Fatalf("Pick mutated subs: %+v -> %+v", saved, subs)
		}
	}
}

// TestBanditUntrainedFallsBackToMinRTT: with an empty table every pick
// must match the Linux default scheduler.
func TestBanditUntrainedFallsBackToMinRTT(t *testing.T) {
	b := Bandit{&banditTable{}}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		ctx, subs := randCtx(rng), randViews(rng)
		if got, want := b.Pick(ctx, subs), PickMinRTT(subs, -1); got != want {
			t.Fatalf("untrained bandit = %d, PickMinRTT = %d (subs %+v)", got, want, subs)
		}
	}
}

// TestBanditWaitRequiresInflight: the learned wait may never park a
// connection with nothing in flight — there would be no future ACK to
// wake it. Build a table where waiting dominates every action bucket
// and check the guard holds.
func TestBanditWaitRequiresInflight(t *testing.T) {
	tab := &banditTable{}
	for i := range tab.q {
		tab.q[i] = 0.1
	}
	for i := range tab.w {
		tab.w[i] = 100 // wait looks infinitely attractive
	}
	b := Bandit{tab}
	idle := []View{{Cwnd: 10, Inflight: 0, SRTT: 0.01, Sendable: true}}
	if got := b.Pick(Ctx{Window: 2}, idle); got != 0 {
		t.Errorf("wait with nothing in flight: Pick = %d, want 0", got)
	}
	// With traffic in flight and tight pressure the learned wait may fire.
	busy := []View{
		{Cwnd: 10, Inflight: 5, SRTT: 0.01, Sendable: true},
		{Cwnd: 10, Inflight: 3, SRTT: 0.3, Sendable: true},
	}
	if got := b.Pick(Ctx{Window: 2}, busy); got != -1 {
		t.Errorf("dominant wait bucket under pressure: Pick = %d, want -1", got)
	}
	// Without flow-control pressure the wait arm is dead even when its
	// value dominates: unconstrained connections always send.
	if got := b.Pick(Ctx{Window: 1 << 20}, busy); got == -1 {
		t.Error("wait fired without flow-control pressure")
	}
}

// TestBanditEmbeddedModelLoads pins the frozen table behind
// sched.New("bandit"): the registry builds the scheduler, and the table
// holds the trained policy — 37 action buckets and the two wait buckets
// of the tight pressure classes, every other bucket untrained.
func TestBanditEmbeddedModelLoads(t *testing.T) {
	s, err := New("bandit")
	if err != nil {
		t.Fatalf("New(bandit): %v", err)
	}
	if s.Name() != "bandit" {
		t.Errorf("Name() = %q", s.Name())
	}
	if b, ok := s.(Bandit); !ok || b.t != &trainedBandit {
		t.Fatalf("New(bandit) = %#v, want a Bandit over the trained table", s)
	}
	trained := 0
	for _, q := range trainedBandit.q {
		if q != 0 {
			trained++
		}
	}
	if trained != 37 {
		t.Errorf("%d trained action buckets, want 37", trained)
	}
	if w := trainedBandit.w; w[0] == 0 || w[1] == 0 || w[2] != 0 || w[3] != 0 {
		t.Errorf("wait buckets %v, want exactly 0 and 1 trained", w)
	}
}

// TestNewBanditAllocatesNothing: the scheduler is a pointer to the
// shared table, so building one per connection costs no allocation.
func TestNewBanditAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { MustNew("bandit") }); n != 0 {
		t.Errorf("New(bandit) allocates %v times, want 0", n)
	}
}
