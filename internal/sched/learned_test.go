package sched

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

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
// window space, never a blocked one — for the embedded model, an
// untrained model, and an exploring instance.
func TestBanditNeverPicksBlockedSubflow(t *testing.T) {
	embedded, err := NewBandit()
	if err != nil {
		t.Fatalf("NewBandit: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	explorer := NewBanditExplorer(&Model{}, rand.New(rand.NewSource(2)), 0.5, &Episode{})
	for _, b := range []*Bandit{embedded, NewBanditFrom(&Model{}), explorer} {
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
	b, err := NewBandit()
	if err != nil {
		t.Fatalf("NewBandit: %v", err)
	}
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
	b1, err1 := NewBandit()
	b2, err2 := NewBandit()
	if err1 != nil || err2 != nil {
		t.Fatalf("NewBandit: %v, %v", err1, err2)
	}
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
	b := NewBanditFrom(&Model{})
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
// wake it. Build a model where waiting dominates every action bucket
// and check the guard holds.
func TestBanditWaitRequiresInflight(t *testing.T) {
	m := &Model{}
	for i := range m.Q {
		m.Q[i], m.QN[i] = 0.1, 1
	}
	for i := range m.W {
		m.W[i], m.WN[i] = 100, 1 // wait looks infinitely attractive
	}
	b := NewBanditFrom(m)
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

// TestBanditExplorerDeterministicBySeed: two explorers over the same
// model with equal seeds reproduce identical pick sequences and episode
// counters; a different seed diverges.
func TestBanditExplorerDeterministicBySeed(t *testing.T) {
	model, err := loadBanditModel()
	if err != nil {
		t.Fatalf("loadBanditModel: %v", err)
	}
	run := func(seed int64) ([]int, *Episode) {
		ep := &Episode{}
		b := NewBanditExplorer(model, rand.New(rand.NewSource(seed)), 0.3, ep)
		states := rand.New(rand.NewSource(99)) // same state stream for all runs
		picks := make([]int, 0, 2000)
		for trial := 0; trial < 2000; trial++ {
			picks = append(picks, b.Pick(randCtx(states), randViews(states)))
		}
		return picks, ep
	}
	p1, e1 := run(5)
	p2, e2 := run(5)
	if !reflect.DeepEqual(p1, p2) || *e1 != *e2 {
		t.Fatal("same-seed explorers diverged")
	}
	p3, _ := run(6)
	if reflect.DeepEqual(p1, p3) {
		t.Fatal("different-seed explorers picked identically (rng unused?)")
	}
}

// TestBanditCorruptModelFailsCleanly: damaged or truncated embedded
// bytes must turn New("bandit") into a clean error — no panic — while
// the registry listing keeps working; restoring the bytes restores the
// scheduler.
func TestBanditCorruptModelFailsCleanly(t *testing.T) {
	defer banditReset(nil)
	good := embeddedModel
	for name, bad := range map[string][]byte{
		"garbage":   []byte("not a model at all"),
		"truncated": good[:len(good)/2],
		"empty":     {},
		"skewed":    []byte("mptcp-bandit v0\n"),
	} {
		banditReset(bad)
		s, err := New("bandit")
		if err == nil {
			t.Fatalf("%s: New(bandit) = %v, want error", name, s)
		}
		if !strings.Contains(err.Error(), "bandit") {
			t.Errorf("%s: error does not name the scheduler: %v", name, err)
		}
		// The catalogue must still list the entry (Help, -list).
		if _, err := schedulers.Lookup("bandit"); err != nil {
			t.Errorf("%s: bandit vanished from the registry", name)
		}
	}
	banditReset(nil)
	if _, err := New("bandit"); err != nil {
		t.Fatalf("restoring the embedded model did not recover: %v", err)
	}
}

// TestBanditEmbeddedModelLoads pins that the checked-in model behind
// sched.New("bandit") parses and is actually trained.
func TestBanditEmbeddedModelLoads(t *testing.T) {
	s, err := New("bandit")
	if err != nil {
		t.Fatalf("New(bandit): %v", err)
	}
	if s.Name() != "bandit" {
		t.Errorf("Name() = %q", s.Name())
	}
	m, err := loadBanditModel()
	if err != nil {
		t.Fatalf("loadBanditModel: %v", err)
	}
	if m.Episodes == 0 {
		t.Fatal("embedded model is untrained")
	}
	info, _ := schedulers.Lookup("bandit")
	if !strings.Contains(info.Provenance, m.Corpus) {
		t.Errorf("Provenance %q does not name the corpus %q", info.Provenance, m.Corpus)
	}
}
