package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// TestP2SmallInputs: below five observations the estimator answers with
// the exact order statistic.
func TestP2SmallInputs(t *testing.T) {
	e := NewP2Quantile(0.5)
	if v := e.Value(); v != 0 {
		t.Fatalf("empty estimator = %v, want 0", v)
	}
	for _, x := range []float64{5, 1, 3} {
		e.Add(x)
	}
	if v := e.Value(); v != 3 {
		t.Fatalf("median of {5,1,3} = %v, want 3", v)
	}
	if e.N() != 3 {
		t.Fatalf("N = %d, want 3", e.N())
	}
}

// TestP2Accuracy: against known distributions the P² estimate must land
// within a few percent of the exact percentile.
func TestP2Accuracy(t *testing.T) {
	cases := []struct {
		name string
		gen  func(r *rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 100 }},
		{"normal", func(r *rand.Rand) float64 { return 50 + 10*r.NormFloat64() }},
		{"exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() * 10 }},
	}
	for _, tc := range cases {
		for _, p := range []float64{0.5, 0.95, 0.99} {
			r := rand.New(rand.NewSource(42))
			e := NewP2Quantile(p)
			xs := make([]float64, 0, 20000)
			for i := 0; i < 20000; i++ {
				x := tc.gen(r)
				e.Add(x)
				xs = append(xs, x)
			}
			exact := Percentile(xs, p*100)
			got := e.Value()
			// Relative to the distribution's spread, not the value: the
			// exponential p50 is small but the tail is long.
			spread := Percentile(xs, 99) - Percentile(xs, 1)
			if math.Abs(got-exact) > 0.05*spread {
				t.Errorf("%s p%g: P²=%.3f exact=%.3f (spread %.3f)", tc.name, p*100, got, exact, spread)
			}
		}
	}
}

// TestP2Deterministic: identical observation sequences give bit-equal
// estimates (no internal randomness).
func TestP2Deterministic(t *testing.T) {
	run := func() float64 {
		r := rand.New(rand.NewSource(7))
		e := NewP2Quantile(0.95)
		for i := 0; i < 5000; i++ {
			e.Add(r.ExpFloat64())
		}
		return e.Value()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("P² not deterministic: %v vs %v", a, b)
	}
}

// TestP2Monotone: the estimate stays within the observed range.
func TestP2Monotone(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	e := NewP2Quantile(0.95)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 10000; i++ {
		x := r.NormFloat64()
		lo, hi = math.Min(lo, x), math.Max(hi, x)
		e.Add(x)
		if i >= 5 {
			if v := e.Value(); v < lo || v > hi {
				t.Fatalf("estimate %v escaped observed range [%v,%v] at n=%d", v, lo, hi, i+1)
			}
		}
	}
}

// TestP2BadQuantile: quantiles outside (0,1) are a construction error.
func TestP2BadQuantile(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewP2Quantile(%v) did not panic", p)
				}
			}()
			NewP2Quantile(p)
		}()
	}
}

// TestSummary: Welford mean/stddev agree with the exact batch formulas,
// extremes are exact, quantiles near-exact.
func TestSummary(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s := NewSummary()
	xs := make([]float64, 0, 10000)
	for i := 0; i < 10000; i++ {
		x := 100 + 15*r.NormFloat64()
		s.Add(x)
		xs = append(xs, x)
	}
	if s.N() != 10000 {
		t.Fatalf("N = %d", s.N())
	}
	m := Sum(xs) / float64(len(xs))
	if math.Abs(s.Mean()-m) > 1e-9*math.Abs(m) {
		t.Errorf("mean %v, exact %v", s.Mean(), m)
	}
	ss := 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	if sd := math.Sqrt(ss / float64(len(xs))); math.Abs(s.Stddev()-sd) > 1e-6*sd {
		t.Errorf("stddev %v, exact %v", s.Stddev(), sd)
	}
	min, max := xs[0], xs[0]
	for _, x := range xs {
		min, max = math.Min(min, x), math.Max(max, x)
	}
	if s.Min() != min || s.Max() != max {
		t.Errorf("extremes (%v,%v), exact (%v,%v)", s.Min(), s.Max(), min, max)
	}
	if p95 := Percentile(xs, 95); math.Abs(s.P95()-p95) > 0.5 {
		t.Errorf("p95 %v, exact %v", s.P95(), p95)
	}
}

// TestSummaryEmpty: the empty summary reports zero counts and moments,
// and NaN extremes — never the sentinel infinities it is seeded with.
func TestSummaryEmpty(t *testing.T) {
	s := NewSummary()
	if s.N() != 0 || s.Mean() != 0 || s.Stddev() != 0 || s.P50() != 0 {
		t.Fatalf("empty summary leaks state: n=%d mean=%v", s.N(), s.Mean())
	}
	if !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Fatalf("empty summary Min/Max = %v/%v, want NaN (must be distinguishable from a real 0 observation)", s.Min(), s.Max())
	}
}

// TestSummaryZeroObservationDistinguishable is the regression test for
// Min/Max returning 0 on an empty summary: a summary holding a genuine
// 0 must report 0, an empty one must not.
func TestSummaryZeroObservationDistinguishable(t *testing.T) {
	s := NewSummary()
	s.Add(0)
	if s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("summary of {0}: Min/Max = %v/%v, want 0/0", s.Min(), s.Max())
	}
}

// TestP2QuantileValueSmallNAllocFree pins the fix for Value()
// re-allocating and re-sorting the init buffer on every call before the
// markers exist: Add keeps the buffer sorted, Value reads it in place.
func TestP2QuantileValueSmallNAllocFree(t *testing.T) {
	e := NewP2Quantile(0.5)
	for _, x := range []float64{5, 1, 4, 2} { // deliberately unsorted
		e.Add(x)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = e.Value() }); allocs != 0 {
		t.Errorf("Value() allocates %v times per call with n<5, want 0", allocs)
	}
	// The exact order statistic must survive the in-place rewrite:
	// ceil(0.5*4)-1 = index 1 of {1,2,4,5} = 2.
	if got := e.Value(); got != 2 {
		t.Errorf("median of {5,1,4,2} = %v, want 2", got)
	}
}

// TestP2QuantileSortedInsertMatchesOldPath: the incremental insertion
// must hand the marker initialisation the same sorted five values the
// old sort-on-fifth-Add did, for any insertion order.
func TestP2QuantileSortedInsertMatchesOldPath(t *testing.T) {
	perm := []float64{3, 1, 5, 4, 2}
	a := NewP2Quantile(0.9)
	b := NewP2Quantile(0.9)
	for _, x := range perm {
		a.Add(x)
	}
	for _, x := range []float64{1, 2, 3, 4, 5} {
		b.Add(x)
	}
	for i := int64(6); i <= 300; i++ {
		a.Add(float64(i))
		b.Add(float64(i))
	}
	if a.Value() != b.Value() {
		t.Errorf("marker state depends on pre-marker insertion order: %v vs %v", a.Value(), b.Value())
	}
}
