package transport

import (
	"testing"

	"mptcp/internal/core"
	"mptcp/internal/netsim"
	"mptcp/internal/sim"
)

// These tests pin down protocol details of §6 and the loss-recovery
// machinery: SACK bookkeeping, duplicate-ACK semantics, persist probing,
// retransmission-timer behaviour and cross-subflow coupling.

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, int64) {
		e := newEnv(77)
		l1 := netsim.NewLink("p1", 10, 5*sim.Millisecond, 30)
		l2 := netsim.NewLink("p2", 5, 30*sim.Millisecond, 30)
		l1.LossRate = 0.01
		c := NewConn(e.n, Config{
			Alg:   &core.MPTCP{},
			Paths: []Path{e.path(l1), e.path(l2)},
		})
		c.Start()
		e.s.RunUntil(30 * sim.Second)
		return c.Delivered(), c.Subflows()[0].PktsRetx
	}
	d1, r1 := run()
	d2, r2 := run()
	if d1 != d2 || r1 != r2 {
		t.Errorf("same seed diverged: delivered %d/%d retx %d/%d", d1, d2, r1, r2)
	}
	if d1 == 0 {
		t.Error("no progress")
	}
}

func TestRetransmissionsAreBounded(t *testing.T) {
	// On a clean dedicated link, retransmissions come only from buffer
	// overflow at the sawtooth peaks — they must be a small fraction of
	// traffic, or recovery is misfiring (the spurious-retransmission
	// feedback loop this implementation explicitly guards against).
	e := newEnv(21)
	l := netsim.NewLink("l", 10, 10*sim.Millisecond, bdp(10, 20*sim.Millisecond))
	c := NewConn(e.n, Config{Paths: []Path{e.path(l)}})
	c.Start()
	e.s.RunUntil(60 * sim.Second)
	sf := c.Subflows()[0]
	frac := float64(sf.PktsRetx) / float64(sf.PktsSent)
	if frac > 0.03 {
		t.Errorf("retransmitted %.1f%% of packets on a clean link (spurious recovery?)", frac*100)
	}
	if got := throughputMbps(c.Delivered(), e.s.Now()); got < 9.0 {
		t.Errorf("throughput %.2f Mb/s, want ~9.5+", got)
	}
}

func TestNoRTOsOnCleanLink(t *testing.T) {
	// Steady-state AIMD on a BDP-buffered link recovers every loss via
	// SACK fast recovery; timeouts would indicate broken recovery.
	e := newEnv(22)
	l := netsim.NewLink("l", 10, 10*sim.Millisecond, bdp(10, 20*sim.Millisecond))
	c := NewConn(e.n, Config{Paths: []Path{e.path(l)}})
	c.Start()
	e.s.RunUntil(60 * sim.Second)
	sf := c.Subflows()[0]
	// The slow-start overshoot may cost one tail-loss RTO; none after.
	if sf.RTOs > 1 {
		t.Errorf("%d RTOs on a clean link (fast recovery broken?)", sf.RTOs)
	}
	if sf.FastRetx == 0 {
		t.Error("expected sawtooth loss events via fast retransmit")
	}
}

func TestMPTCPPrefersShorterRTTForEqualLoss(t *testing.T) {
	// Two equal-capacity paths with very different RTTs, no competition:
	// MPTCP fills both (goal (3): at least best single path; here both
	// are bottlenecked by their own capacity).
	e := newEnv(24)
	short := netsim.NewLink("short", 8, 5*sim.Millisecond, bdp(8, 10*sim.Millisecond))
	long := netsim.NewLink("long", 8, 100*sim.Millisecond, bdp(8, 200*sim.Millisecond))
	c := NewConn(e.n, Config{Alg: &core.MPTCP{}, Paths: []Path{e.path(short), e.path(long)}})
	c.Start()
	e.s.RunUntil(20 * sim.Second)
	base := c.Delivered()
	e.s.RunUntil(60 * sim.Second)
	got := throughputMbps(c.Delivered()-base, 40*sim.Second)
	if got < 0.8*16 {
		t.Errorf("MPTCP on idle 8+8 Mb/s paths = %.2f Mb/s, want ~16", got)
	}
	// The long path needs a much larger window for the same rate: RTT
	// compensation must not starve it.
	if c.Cwnd(1) < 2*c.Cwnd(0) {
		t.Errorf("long-RTT window %v should far exceed short-RTT window %v at equal rate",
			c.Cwnd(1), c.Cwnd(0))
	}
}

func TestPersistProbeRecoversLostWindowUpdate(t *testing.T) {
	// Stall the app until the window closes, then drop the reopening
	// window-update ACKs: the sender's persist timer must still recover.
	e := newEnv(25)
	l := netsim.NewLink("l", 10, 10*sim.Millisecond, 100)
	c := NewConn(e.n, Config{Paths: []Path{e.path(l)}, RecvBuf: 32})
	c.Start()
	e.s.RunUntil(2 * sim.Second)
	c.Receiver().SetAppStalled(true)
	e.s.RunUntil(6 * sim.Second)
	// Take the ACK path down over the moment of the window update so the
	// update is lost, then restore it.
	ackLink := c.recv.rev[0].Links[0]
	ackLink.SetDown(true)
	c.Receiver().SetAppStalled(false) // window update lost
	e.s.RunUntil(6500 * sim.Millisecond)
	ackLink.SetDown(false)
	before := c.Delivered()
	e.s.RunUntil(12 * sim.Second)
	if c.Delivered()-before < 50 {
		t.Errorf("sender stayed wedged after lost window update (persist probe broken): +%d pkts",
			c.Delivered()-before)
	}
}

func TestSubflowStatsAccounting(t *testing.T) {
	e := newEnv(26)
	l := netsim.NewLink("l", 10, 10*sim.Millisecond, 50)
	l.LossRate = 0.02
	c := NewConn(e.n, Config{Paths: []Path{e.path(l)}, DataPackets: 3000})
	c.Start()
	e.s.RunUntil(120 * sim.Second)
	sf := c.Subflows()[0]
	if !c.Done() {
		t.Fatalf("flow incomplete: %d/3000", c.Delivered())
	}
	if sf.PktsSent < 3000 {
		t.Errorf("sent %d < 3000 data packets", sf.PktsSent)
	}
	if sf.PktsSent-sf.PktsRetx > 3000+10 {
		t.Errorf("original transmissions %d exceed data size", sf.PktsSent-sf.PktsRetx)
	}
	if sf.PktsRetx == 0 {
		t.Error("2% loss should force retransmissions")
	}
}

func TestDupDataCountedOnce(t *testing.T) {
	// Reinjection after an RTO can deliver the same data twice; the
	// receiver must count it as duplicate, not deliver it again.
	e := newEnv(27)
	l1 := netsim.NewLink("p1", 10, 10*sim.Millisecond, 50)
	l2 := netsim.NewLink("p2", 10, 10*sim.Millisecond, 50)
	c := NewConn(e.n, Config{
		Alg:         &core.MPTCP{},
		Paths:       []Path{e.path(l1), e.path(l2)},
		DataPackets: 4000,
	})
	c.Start()
	e.s.RunUntil(1 * sim.Second)
	l2.SetDown(true)
	e.s.RunUntil(3 * sim.Second)
	l2.SetDown(false) // path returns: its go-back-N repair duplicates reinjected data
	e.s.RunUntil(120 * sim.Second)
	if !c.Done() {
		t.Fatalf("flow incomplete: %d/4000", c.Delivered())
	}
	if got := c.Delivered(); got != 4000 {
		t.Errorf("delivered %d, want exactly 4000", got)
	}
	if c.recv.DupData == 0 {
		t.Error("outage + reinjection + repair should produce duplicate data arrivals")
	}
}

func TestEWTCPLessAggressiveThanTCPPerSubflow(t *testing.T) {
	// §2.1's case: two EWTCP subflows (weight 1/2 each) share one
	// bottleneck with a regular TCP. A subflow must on average get
	// materially less than the TCP, and the two together about one TCP's
	// share. Uncoupled REGULAR subflows here each match the TCP and take
	// two thirds.
	e := newEnv(28)
	l := netsim.NewLink("shared", 12, 25*sim.Millisecond, bdp(12, 50*sim.Millisecond))
	ew := NewConn(e.n, Config{Alg: core.EWTCP{}, Paths: []Path{e.path(l), e.path(l)}})
	tcp := NewConn(e.n, Config{Paths: []Path{e.path(l)}})
	ew.Start()
	tcp.Start()
	e.s.RunUntil(20 * sim.Second)
	e0, t0 := ew.Delivered(), tcp.Delivered()
	e.s.RunUntil(120 * sim.Second)
	eRate := float64(ew.Delivered() - e0)
	tRate := float64(tcp.Delivered() - t0)
	if eRate/2 > 0.85*tRate {
		t.Errorf("EWTCP subflows averaged %.0f vs TCP %.0f — weighting ineffective", eRate/2, tRate)
	}
	if share := eRate / (eRate + tRate); share < 0.35 || share > 0.62 {
		t.Errorf("EWTCP share of the bottleneck = %.3f, want about one TCP's (0.35..0.62)", share)
	}
}

func TestRecvWindowAdvertisement(t *testing.T) {
	e := newEnv(29)
	l := netsim.NewLink("l", 10, 10*sim.Millisecond, 100)
	c := NewConn(e.n, Config{Paths: []Path{e.path(l)}, RecvBuf: 48})
	c.Start()
	e.s.RunUntil(1 * sim.Second)
	if w := c.Receiver().Window(); w != 48 {
		t.Errorf("instant-read receiver should advertise the full buffer, got %d", w)
	}
	c.Receiver().SetAppStalled(true)
	e.s.RunUntil(5 * sim.Second)
	if w := c.Receiver().Window(); w >= 48 {
		t.Errorf("stalled receiver still advertises %d", w)
	}
}
