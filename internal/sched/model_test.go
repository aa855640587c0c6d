package sched

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
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

// randomModel builds a model with irrational-ish float values so the
// round-trip test exercises the full mantissa, not friendly decimals.
func randomModel(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := &Model{Corpus: "test-corpus", Seed: seed, Episodes: rng.Int63n(1000)}
	for b := 0; b < nActions; b++ {
		if rng.Intn(3) == 0 {
			continue // leave some buckets untrained
		}
		m.QN[b] = rng.Int63n(1 << 40)
		m.Q[b] = rng.NormFloat64() * 3
	}
	for b := 0; b < nWait; b++ {
		m.WN[b] = rng.Int63n(1 << 20)
		m.W[b] = rng.ExpFloat64()
	}
	return m
}

func TestMarshalParseModelRoundTripsExactly(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		m := randomModel(seed)
		data := m.Marshal()
		got, err := ParseModel(data)
		if err != nil {
			t.Fatalf("seed %d: ParseModel(Marshal): %v", seed, err)
		}
		if *got != *m {
			t.Fatalf("seed %d: round-trip changed the model:\n got %+v\nwant %+v", seed, got, m)
		}
		// Marshal ∘ ParseModel ∘ Marshal must be the identity on bytes, or
		// the train-determinism cmp gate is meaningless.
		if again := got.Marshal(); !bytes.Equal(again, data) {
			t.Fatalf("seed %d: re-marshal differs from original bytes", seed)
		}
	}
}

func TestMarshalCanonical(t *testing.T) {
	m := randomModel(7)
	if !bytes.Equal(m.Marshal(), m.Clone().Marshal()) {
		t.Fatal("equal models marshal differently")
	}
	if !bytes.HasPrefix(m.Marshal(), []byte(modelVersion+"\n")) {
		t.Fatal("marshal does not start with the version line")
	}
	if !bytes.HasSuffix(m.Marshal(), []byte("end\n")) {
		t.Fatal("marshal does not finish with the end marker")
	}
}

func TestUpdateIsUsageWeightedMean(t *testing.T) {
	m := &Model{}
	ep1 := &Episode{}
	ep1.Action[5] = 3
	ep1.Wait[1] = 1
	m.Update(ep1, 2.0)
	ep2 := &Episode{}
	ep2.Action[5] = 1
	m.Update(ep2, 6.0)

	// Bucket 5 saw 3 uses at reward 2 and 1 use at reward 6: mean 3.
	if m.QN[5] != 4 || m.Q[5] != 3.0 {
		t.Errorf("Q[5] = (%g, n=%d), want (3, 4)", m.Q[5], m.QN[5])
	}
	if m.WN[1] != 1 || m.W[1] != 2.0 {
		t.Errorf("W[1] = (%g, n=%d), want (2, 1)", m.W[1], m.WN[1])
	}
	if m.Episodes != 2 {
		t.Errorf("Episodes = %d, want 2", m.Episodes)
	}
	// Untouched buckets stay untrained.
	if m.QN[0] != 0 || m.Q[0] != 0 {
		t.Errorf("Q[0] = (%g, n=%d), want untouched", m.Q[0], m.QN[0])
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := randomModel(3)
	c := m.Clone()
	ep := &Episode{}
	ep.Action[0] = 1
	c.Update(ep, 99)
	if m.Q[0] == c.Q[0] && m.QN[0] == c.QN[0] && m.Episodes == c.Episodes {
		t.Fatal("Clone shares state with the original")
	}
}

func TestParseModelRejectsDamage(t *testing.T) {
	good := string(randomModel(11).Marshal())
	cases := map[string]string{
		"empty":             "",
		"wrong version":     strings.Replace(good, "v1", "v9", 1),
		"no version":        strings.TrimPrefix(good, modelVersion+"\n"),
		"missing corpus":    strings.Replace(good, "corpus test-corpus\n", "", 1),
		"bad seed":          strings.Replace(good, "seed 11", "seed eleven", 1),
		"bad episodes":      strings.Replace(good, "episodes", "episodes x", 1),
		"dims mismatch":     strings.Replace(good, "dims 4 3 4", "dims 5 3 4", 1),
		"truncated":         good[:len(good)-len("end\n")],
		"half a line":       good[:len(good)/2],
		"trailing garbage":  good + "q 0 1 0x1p+00\n",
		"q index range":     strings.Replace(good, "\nend", "\nq 48 1 0x1p+00\nend", 1),
		"w index range":     strings.Replace(good, "\nend", "\nw 4 1 0x1p+00\nend", 1),
		"negative count":    strings.Replace(good, "\nend", "\nq 0 -1 0x1p+00\nend", 1),
		"NaN value":         strings.Replace(good, "\nend", "\nq 0 1 NaN\nend", 1),
		"malformed entry":   strings.Replace(good, "\nend", "\nq 0 1\nend", 1),
		"unknown entry tag": strings.Replace(good, "\nend", "\nz 0 1 0x1p+00\nend", 1),
	}
	for name, data := range cases {
		if _, err := ParseModel([]byte(data)); err == nil {
			t.Errorf("%s: ParseModel should fail", name)
		}
	}
	// Sanity: the undamaged bytes do parse.
	if _, err := ParseModel([]byte(good)); err != nil {
		t.Fatalf("pristine model failed to parse: %v", err)
	}
}

// TestEmbeddedModelIsTrained pins the checked-in model file itself: it
// parses, it is trained, it is in canonical form (so the pinned trainer
// command can reproduce it byte-for-byte), and the registry Provenance
// line reports the same header ParseModel reads.
func TestEmbeddedModelIsTrained(t *testing.T) {
	m, err := ParseModel(embeddedModel)
	if err != nil {
		t.Fatalf("embedded model does not parse: %v", err)
	}
	if m.Episodes == 0 {
		t.Fatal("embedded model is untrained (0 episodes) — re-run the pinned -train-sched command")
	}
	if !bytes.Equal(m.Marshal(), embeddedModel) {
		t.Error("embedded model is not in canonical Marshal form")
	}
	want := fmt.Sprintf("%s, corpus %s, seed %d, %d episodes", modelVersion, m.Corpus, m.Seed, m.Episodes)
	if got := banditProvenance(); got != want {
		t.Errorf("banditProvenance() = %q, want %q", got, want)
	}
}

// FuzzParseModel asserts the no-panic contract: arbitrary bytes either
// parse or error, and anything that parses re-marshals canonically.
func FuzzParseModel(f *testing.F) {
	f.Add([]byte{})
	f.Add(randomModel(1).Marshal())
	f.Add([]byte(modelVersion + "\n"))
	f.Add([]byte(modelVersion + "\ncorpus c\nseed 1\nepisodes 0\ndims 4 3 4\nend\n"))
	f.Add([]byte(modelVersion + "\ncorpus c\nseed 1\nepisodes 0\ndims 4 3 4\nq 0 1 0x1p+00\nend\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseModel(data)
		if err != nil {
			return
		}
		// A successful parse must round-trip through the canonical form.
		again, err := ParseModel(m.Marshal())
		if err != nil {
			t.Fatalf("canonical re-marshal does not parse: %v", err)
		}
		if *again != *m {
			t.Fatal("canonical round-trip changed the model")
		}
	})
}
