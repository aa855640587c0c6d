package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"mptcp/internal/sim"
)

func TestSamplerTicks(t *testing.T) {
	s := sim.New(1)
	sa := NewSampler(s, sim.Second)
	x := 0.0
	sa.Probe("x", func() float64 { x++; return x })
	sa.Start()
	s.RunUntil(10500 * sim.Millisecond)
	ser := sa.Series("x")
	if ser.Len() != 10 {
		t.Fatalf("samples = %d, want 10", ser.Len())
	}
	if ser.Vals[0] != 1 || ser.Vals[9] != 10 {
		t.Errorf("sample values wrong: %v", ser.Vals)
	}
	if ser.Times[0] != sim.Second {
		t.Errorf("first sample at %v, want 1s", ser.Times[0])
	}
}

func TestSeriesRate(t *testing.T) {
	var ser Series
	ser.Add(0, 0)
	ser.Add(sim.Second, 100)
	ser.Add(2*sim.Second, 300)
	r := ser.Rate()
	if r.Len() != 2 || r.Vals[0] != 100 || r.Vals[1] != 200 {
		t.Errorf("rate series = %v", r.Vals)
	}
}

func TestThroughputMbps(t *testing.T) {
	// 1000 packets of 1500B in 1.2 s = 10 Mb/s.
	got := ThroughputMbps(1000, 1200*sim.Millisecond)
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("throughput = %v, want 10", got)
	}
	if ThroughputMbps(10, 0) != 0 {
		t.Error("zero duration should yield 0")
	}
}

func TestRank(t *testing.T) {
	got := Rank([]float64{3, 1, 2})
	if got[0] != 3 || got[1] != 2 || got[2] != 1 {
		t.Errorf("rank = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := Percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

// Property: Rank preserves multiset and is monotone nonincreasing.
func TestRankProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		xs := make([]float64, len(raw))
		sum := 0.0
		for i, v := range raw {
			xs[i] = float64(v)
			sum += float64(v)
		}
		r := Rank(xs)
		if len(r) != len(xs) {
			return false
		}
		rsum := 0.0
		for i, v := range r {
			rsum += v
			if i > 0 && r[i] > r[i-1] {
				return false
			}
		}
		return math.Abs(rsum-sum) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal rates: index %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("single user: index %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 1 {
		t.Errorf("empty: %v, want 1", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all zero: %v, want 1", got)
	}
}

func TestJainIndexRange(t *testing.T) {
	prop := func(xsRaw []uint16) bool {
		xs := make([]float64, len(xsRaw))
		for i, v := range xsRaw {
			xs[i] = float64(v)
		}
		j := JainIndex(xs)
		return j >= 0 && j <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
