package transport

import (
	"math"
	"testing"

	"mptcp/internal/core"
	"mptcp/internal/netsim"
	"mptcp/internal/sim"
)

// env is a small harness: a simulator, a network, and helpers to build
// bidirectional paths.
type env struct {
	s *sim.Simulator
	n *netsim.Net
}

func newEnv(seed int64) *env {
	s := sim.New(seed)
	return &env{s: s, n: netsim.NewNet(s)}
}

// path builds a symmetric two-way path through the given forward links;
// reverse links are created with the same properties (ample for ACKs).
func (e *env) path(fwd ...*netsim.Link) Path {
	rev := make([]*netsim.Link, len(fwd))
	for i, l := range fwd {
		rev[len(fwd)-1-i] = netsim.NewLink(l.Name+"-rev", l.RateBps/1e6, l.PropDelay, l.QueueCap)
	}
	return Path{Fwd: fwd, Rev: rev}
}

// bdp returns the bandwidth-delay product in packets for rate (Mb/s) and
// rtt.
func bdp(rateMbps float64, rtt sim.Time) int {
	return int(rateMbps * 1e6 * rtt.Seconds() / (netsim.DataPacketSize * 8))
}

// throughputMbps converts packets delivered over an interval to Mb/s.
func throughputMbps(pkts int64, dur sim.Time) float64 {
	return float64(pkts) * netsim.DataPacketSize * 8 / dur.Seconds() / 1e6
}

func TestSinglePathTCPFillsLink(t *testing.T) {
	e := newEnv(1)
	// 10 Mb/s, 20 ms RTT, buffer = 1 BDP.
	buf := bdp(10, 20*sim.Millisecond)
	l := netsim.NewLink("bottleneck", 10, 10*sim.Millisecond, buf)
	c := NewConn(e.n, Config{Paths: []Path{e.path(l)}})
	c.Start()
	e.s.RunUntil(20 * sim.Second)
	// Skip the first 2 s of slow start when judging utilisation.
	warm := c.Delivered()
	e.s.RunUntil(40 * sim.Second)
	got := throughputMbps(c.Delivered()-warm, 20*sim.Second)
	if got < 9.0 || got > 10.01 {
		t.Errorf("long-lived TCP throughput = %.2f Mb/s, want ~10 (buffer=%d pkts)", got, buf)
	}
}

func TestTCPFairShareTwoFlows(t *testing.T) {
	e := newEnv(2)
	buf := bdp(10, 40*sim.Millisecond)
	l := netsim.NewLink("bottleneck", 10, 20*sim.Millisecond, buf)
	mk := func() *Conn {
		// Separate reverse links so ACKs don't collide.
		return NewConn(e.n, Config{Paths: []Path{e.path(l)}})
	}
	c1, c2 := mk(), mk()
	c1.Start()
	c2.Start()
	e.s.RunUntil(10 * sim.Second)
	w1, w2 := c1.Delivered(), c2.Delivered()
	e.s.RunUntil(70 * sim.Second)
	t1 := throughputMbps(c1.Delivered()-w1, 60*sim.Second)
	t2 := throughputMbps(c2.Delivered()-w2, 60*sim.Second)
	if sum := t1 + t2; sum < 9.0 {
		t.Errorf("aggregate = %.2f Mb/s, want ~10", sum)
	}
	ratio := t1 / t2
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("unfair split: %.2f vs %.2f Mb/s", t1, t2)
	}
}

func TestMPTCPUsesBothDisjointPaths(t *testing.T) {
	e := newEnv(3)
	l1 := netsim.NewLink("p1", 8, 10*sim.Millisecond, bdp(8, 20*sim.Millisecond))
	l2 := netsim.NewLink("p2", 4, 10*sim.Millisecond, bdp(4, 20*sim.Millisecond))
	c := NewConn(e.n, Config{
		Alg:   &core.MPTCP{},
		Paths: []Path{e.path(l1), e.path(l2)},
	})
	c.Start()
	e.s.RunUntil(10 * sim.Second)
	base := c.Delivered()
	e.s.RunUntil(40 * sim.Second)
	got := throughputMbps(c.Delivered()-base, 30*sim.Second)
	// No competing traffic: §2.5 "MPTCP does in fact give throughput
	// equal to the sum of access link bandwidths".
	if got < 0.85*12 {
		t.Errorf("MPTCP on 8+4 Mb/s idle paths = %.2f Mb/s, want ~12", got)
	}
	if c.SubflowDelivered(0) == 0 || c.SubflowDelivered(1) == 0 {
		t.Error("one subflow never delivered data")
	}
}

// Fig. 1 scenario: an MPTCP flow with two subflows through one bottleneck
// competing with a single-path TCP must take ~half, not ~two thirds.
func TestSharedBottleneckFairness(t *testing.T) {
	for _, tc := range []struct {
		name    string
		alg     core.Algorithm
		loShare float64
		hiShare float64
	}{
		{"MPTCP", &core.MPTCP{}, 0.35, 0.62},
		{"EWTCP", core.EWTCP{}, 0.35, 0.62},
		{"COUPLED", core.Coupled{}, 0.30, 0.62},
		// Uncoupled REGULAR on two subflows takes ~2/3 — the §2.1
		// unfairness this paper exists to fix.
		{"REGULAR", core.Regular{}, 0.60, 0.75},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(4)
			buf := bdp(12, 50*sim.Millisecond)
			l := netsim.NewLink("shared", 12, 25*sim.Millisecond, buf)
			mp := NewConn(e.n, Config{
				Alg:   tc.alg,
				Paths: []Path{e.path(l), e.path(l)},
			})
			tcp := NewConn(e.n, Config{Paths: []Path{e.path(l)}})
			mp.Start()
			tcp.Start()
			e.s.RunUntil(20 * sim.Second)
			m0, t0 := mp.Delivered(), tcp.Delivered()
			e.s.RunUntil(140 * sim.Second)
			mRate := float64(mp.Delivered() - m0)
			tRate := float64(tcp.Delivered() - t0)
			share := mRate / (mRate + tRate)
			if share < tc.loShare || share > tc.hiShare {
				t.Errorf("%s multipath share = %.3f, want in [%.2f,%.2f]",
					tc.name, share, tc.loShare, tc.hiShare)
			}
		})
	}
}

func TestFiniteFlowCompletes(t *testing.T) {
	e := newEnv(5)
	l := netsim.NewLink("l", 10, 10*sim.Millisecond, 100)
	completed := false
	c := NewConn(e.n, Config{
		Paths:       []Path{e.path(l)},
		DataPackets: 500,
		OnComplete:  func(*Conn) { completed = true },
	})
	c.Start()
	e.s.RunUntil(60 * sim.Second)
	if !completed || !c.Done() {
		t.Fatal("finite flow did not complete")
	}
	if got := c.Delivered(); got != 500 {
		t.Errorf("delivered %d packets, want 500", got)
	}
	if c.CompletedAt() <= c.StartedAt() {
		t.Error("completion time not after start")
	}
}

func TestLossRecoveryRandomLoss(t *testing.T) {
	e := newEnv(6)
	l := netsim.NewLink("lossy", 100, 10*sim.Millisecond, 1000)
	l.LossRate = 0.01
	c := NewConn(e.n, Config{Paths: []Path{e.path(l)}, DataPackets: 20000})
	c.Start()
	e.s.RunUntil(600 * sim.Second)
	if !c.Done() {
		t.Fatalf("flow did not finish despite retransmissions (delivered %d)", c.Delivered())
	}
	if c.Subflows()[0].FastRetx == 0 {
		t.Error("expected at least one fast retransmit at 1% loss")
	}
}

func TestThroughputMatchesRootPFormula(t *testing.T) {
	// At fixed random loss p with ample capacity, NewReno's rate should
	// track ~√(2/p)/RTT within a factor accounting for timeouts and
	// discreteness (the paper's analysis uses this formula in §2.3).
	e := newEnv(7)
	p := 0.005
	rtt := 100 * sim.Millisecond
	l := netsim.NewLink("lossy", 1000, rtt/2, 1<<16)
	l.LossRate = p
	c := NewConn(e.n, Config{Paths: []Path{e.path(l)}})
	c.Start()
	e.s.RunUntil(300 * sim.Second)
	rate := float64(c.Delivered()) / e.s.Now().Seconds() // pkt/s
	want := math.Sqrt(2/p) / rtt.Seconds()
	if rate < 0.5*want || rate > 1.5*want {
		t.Errorf("rate = %.0f pkt/s, formula √(2/p)/RTT = %.0f", rate, want)
	}
}

func TestRTORecoversFromOutage(t *testing.T) {
	e := newEnv(8)
	l := netsim.NewLink("flaky", 10, 10*sim.Millisecond, 50)
	c := NewConn(e.n, Config{Paths: []Path{e.path(l)}})
	c.Start()
	e.s.RunUntil(5 * sim.Second)
	l.SetDown(true)
	e.s.RunUntil(8 * sim.Second)
	l.SetDown(false)
	before := c.Delivered()
	e.s.RunUntil(30 * sim.Second)
	if c.Subflows()[0].RTOs == 0 {
		t.Error("outage should have caused an RTO")
	}
	got := throughputMbps(c.Delivered()-before, 22*sim.Second)
	if got < 7 {
		t.Errorf("post-outage throughput = %.2f Mb/s, want ~10 (flow wedged?)", got)
	}
}

func TestReinjectionSurvivesPathDeath(t *testing.T) {
	e := newEnv(9)
	l1 := netsim.NewLink("p1", 10, 10*sim.Millisecond, 50)
	l2 := netsim.NewLink("p2", 10, 10*sim.Millisecond, 50)
	c := NewConn(e.n, Config{
		Alg:         &core.MPTCP{},
		Paths:       []Path{e.path(l1), e.path(l2)},
		DataPackets: 8000,
	})
	c.Start()
	e.s.RunUntil(2 * sim.Second)
	l2.SetDown(true) // path 2 dies with data in flight
	e.s.RunUntil(120 * sim.Second)
	if !c.Done() {
		t.Fatalf("connection stranded after path death: delivered %d/8000 (in-flight data on the dead path must be reinjected)",
			c.Delivered())
	}
}

func TestNoReinjectStrandsData(t *testing.T) {
	// Ablation: with reinjection disabled, killing a path with in-flight
	// data stalls the stream — demonstrating why §6's design needs
	// data-level retransmission.
	e := newEnv(10)
	l1 := netsim.NewLink("p1", 10, 10*sim.Millisecond, 50)
	l2 := netsim.NewLink("p2", 10, 10*sim.Millisecond, 50)
	c := NewConn(e.n, Config{
		Alg:             &core.MPTCP{},
		Paths:           []Path{e.path(l1), e.path(l2)},
		DataPackets:     8000,
		DisableReinject: true,
	})
	c.Start()
	e.s.RunUntil(2 * sim.Second)
	l2.SetDown(true)
	e.s.RunUntil(120 * sim.Second)
	if c.Done() {
		t.Error("flow completed despite stranded data — reinjection ablation broken")
	}
}

func TestFlowControlStalledApp(t *testing.T) {
	e := newEnv(11)
	l := netsim.NewLink("l", 10, 10*sim.Millisecond, 100)
	c := NewConn(e.n, Config{
		Paths:   []Path{e.path(l)},
		RecvBuf: 64,
	})
	c.Start()
	e.s.RunUntil(2 * sim.Second)
	c.Receiver().SetAppStalled(true)
	stallPoint := c.Delivered()
	e.s.RunUntil(12 * sim.Second)
	// Sender must stop within one buffer's worth of data.
	if got := c.Delivered() - stallPoint; got > 64 {
		t.Errorf("sender pushed %d packets into a stalled 64-packet buffer", got)
	}
	if c.Receiver().Overflow != 0 {
		t.Errorf("receive buffer overflowed %d times", c.Receiver().Overflow)
	}
	c.Receiver().SetAppStalled(false)
	// The window reopens on the next ACK; nudge with a timer-driven
	// probe: our model's RTO retransmission doubles as window probing.
	resume := c.Delivered()
	e.s.RunUntil(30 * sim.Second)
	if c.Delivered()-resume < 100 {
		t.Errorf("flow did not resume after app unstalled (delivered %d more)", c.Delivered()-resume)
	}
}

func TestInOrderExactlyOnceDelivery(t *testing.T) {
	e := newEnv(12)
	l1 := netsim.NewLink("p1", 10, 5*sim.Millisecond, 30)
	l2 := netsim.NewLink("p2", 3, 40*sim.Millisecond, 30)
	l1.LossRate = 0.01
	l2.LossRate = 0.02
	c := NewConn(e.n, Config{
		Alg:         &core.MPTCP{},
		Paths:       []Path{e.path(l1), e.path(l2)},
		DataPackets: 5000,
	})
	c.Start()
	e.s.RunUntil(300 * sim.Second)
	if !c.Done() {
		t.Fatalf("flow incomplete: %d/5000", c.Delivered())
	}
	if got := c.Delivered(); got != 5000 {
		t.Errorf("cumulative data = %d, want exactly 5000", got)
	}
	// Per-subflow delivered counts unique data only.
	if c.SubflowDelivered(0)+c.SubflowDelivered(1) != 5000 {
		t.Errorf("per-subflow unique deliveries sum to %d, want 5000",
			c.SubflowDelivered(0)+c.SubflowDelivered(1))
	}
}

func TestRTTEstimator(t *testing.T) {
	e := newEnv(13)
	l := netsim.NewLink("l", 100, 25*sim.Millisecond, 1000)
	c := NewConn(e.n, Config{Paths: []Path{e.path(l)}, DataPackets: 200})
	c.Start()
	e.s.RunUntil(10 * sim.Second)
	srtt := c.SRTT(0)
	// Base RTT is 50 ms plus small serialisation; queueing adds a bit.
	if srtt < 50*sim.Millisecond || srtt > 80*sim.Millisecond {
		t.Errorf("SRTT = %v, want ~50-80ms", srtt)
	}
}

func TestCwndFloor(t *testing.T) {
	e := newEnv(14)
	l := netsim.NewLink("tiny", 0.5, 10*sim.Millisecond, 2)
	l.LossRate = 0.2
	c := NewConn(e.n, Config{Paths: []Path{e.path(l)}})
	c.Start()
	e.s.RunUntil(60 * sim.Second)
	if c.Cwnd(0) < 1 {
		t.Errorf("cwnd fell below 1 packet: %v", c.Cwnd(0))
	}
	if c.Delivered() == 0 {
		t.Error("no progress under heavy loss")
	}
}

func TestConfigDefaults(t *testing.T) {
	e := newEnv(15)
	l := netsim.NewLink("l", 1, 0, 10)
	single := NewConn(e.n, Config{Paths: []Path{e.path(l)}})
	if single.Alg().Name() != "REGULAR" {
		t.Errorf("single-path default alg = %s, want REGULAR", single.Alg().Name())
	}
	multi := NewConn(e.n, Config{Paths: []Path{e.path(l), e.path(l)}})
	if multi.Alg().Name() != "MPTCP" {
		t.Errorf("multi-path default alg = %s, want MPTCP", multi.Alg().Name())
	}
}

// hookedAlg is a NewReno algorithm instrumented with internal/cc's
// optional hooks, recording every callback the transport delivers.
type hookedAlg struct {
	core.Regular
	rttSamples int
	badSamples int
	losses     int
	badState   int
}

func (h *hookedAlg) Name() string { return "HOOKED" }

func (h *hookedAlg) OnRTTSample(subs []core.Subflow, r int, rtt float64) {
	h.rttSamples++
	if rtt <= 0 || r < 0 || r >= len(subs) {
		h.badSamples++
	}
}

func (h *hookedAlg) OnLoss(subs []core.Subflow, r int) {
	h.losses++
	if r < 0 || r >= len(subs) {
		h.badState++
	}
}

// TestAlgorithmHooksWired asserts the extended algorithm contract: every
// RTT measurement reaches OnRTTSample and every loss event (fast
// retransmit or RTO) fires OnLoss exactly once, before the Decrease it
// precedes.
func TestAlgorithmHooksWired(t *testing.T) {
	e := newEnv(16)
	alg := &hookedAlg{}
	l1 := netsim.NewLink("h1", 5, 10*sim.Millisecond, 20)
	l2 := netsim.NewLink("h2", 5, 20*sim.Millisecond, 20)
	l1.LossRate = 0.02
	c := NewConn(e.n, Config{Alg: alg, Paths: []Path{e.path(l1), e.path(l2)}})
	c.Start()
	e.s.RunUntil(30 * sim.Second)
	if alg.rttSamples == 0 {
		t.Error("no RTT samples delivered to OnRTTSample")
	}
	if alg.badSamples > 0 || alg.badState > 0 {
		t.Errorf("%d invalid RTT samples, %d invalid loss states", alg.badSamples, alg.badState)
	}
	var events int64
	for _, sf := range c.Subflows() {
		events += sf.FastRetx + sf.RTOs
	}
	if events == 0 {
		t.Fatal("2% loss produced no loss events; the assertion below is vacuous")
	}
	if int64(alg.losses) != events {
		t.Errorf("OnLoss fired %d times for %d loss events", alg.losses, events)
	}
}

// TestHookFreeAlgorithmsUnaffected pins that an algorithm without hooks
// runs through the same wiring untouched (nil observers, no panics).
func TestHookFreeAlgorithmsUnaffected(t *testing.T) {
	e := newEnv(17)
	l := netsim.NewLink("plain", 5, 10*sim.Millisecond, 20)
	l.LossRate = 0.01
	c := NewConn(e.n, Config{Alg: core.EWTCP{}, Paths: []Path{e.path(l), e.path(l)}})
	c.Start()
	e.s.RunUntil(10 * sim.Second)
	if c.Delivered() == 0 {
		t.Error("hook-free algorithm made no progress")
	}
}
