package scenario

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mptcp/internal/netsim"
	"mptcp/internal/sim"
)

func TestOnOffCBRDutyCycle(t *testing.T) {
	s := sim.New(1)
	n := netsim.NewNet(s)
	l := netsim.NewLink("l", 100, 0, 1000)
	// Mean on 10 ms at 100 Mb/s, mean off 100 ms: expect ~1/11 of the
	// link's packet rate on average.
	cbr := NewOnOffCBR(n, 100, 10*sim.Millisecond, 100*sim.Millisecond, l)
	cbr.Start()
	s.RunUntil(200 * sim.Second)
	rate := float64(cbr.PktsSent) / 200.0
	lineRate := 100e6 / (netsim.DataPacketSize * 8)
	want := lineRate / 11
	if rate < 0.6*want || rate > 1.5*want {
		t.Errorf("CBR average rate = %.0f pkt/s, want ~%.0f", rate, want)
	}
}

func TestOnOffCBRBurstsAtLineRate(t *testing.T) {
	s := sim.New(2)
	n := netsim.NewNet(s)
	l := netsim.NewLink("l", 100, 0, 1<<20)
	cbr := NewOnOffCBR(n, 100, 50*sim.Millisecond, 50*sim.Millisecond, l)
	cbr.Start()
	// Track the max rate over 10 ms windows.
	var maxWin int64
	prev := int64(0)
	for i := 0; i < 2000; i++ {
		s.RunUntil(sim.Time(i+1) * 10 * sim.Millisecond)
		if d := cbr.PktsSent - prev; d > maxWin {
			maxWin = d
		}
		prev = cbr.PktsSent
	}
	// 100 Mb/s = ~83 packets per 10 ms.
	if maxWin < 70 {
		t.Errorf("peak burst = %d pkts/10ms, want ~83 (line rate)", maxWin)
	}
}

func TestParetoMean(t *testing.T) {
	p := NewParetoMean(1.5, 200)
	if math.Abs(p.Mean()-200) > 1e-9 {
		t.Errorf("analytic mean = %v, want 200", p.Mean())
	}
	rng := rand.New(rand.NewSource(3))
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += p.Sample(rng)
	}
	got := sum / n
	// alpha=1.5 has infinite variance; accept a broad band.
	if got < 140 || got > 300 {
		t.Errorf("empirical mean = %.1f, want ~200", got)
	}
}

func TestParetoMinimum(t *testing.T) {
	p := NewParetoMean(1.5, 200)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			if p.Sample(rng) < p.Xm {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
