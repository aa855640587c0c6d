package netsim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"mptcp/internal/sim"
)

// timelineWorld is a small world exercising everything a link does to a
// packet: two 2-hop routes with asymmetric rates and delays (so event
// instants rarely collide across links), a small drop-tail buffer on one
// path, random loss on another, and a mid-run outage.
func timelineWorld() (*sim.Simulator, []*sink, []*Link) {
	s := sim.New(99)
	n := NewNet(s)
	la1 := NewLink("a1", 12, 3100*sim.Microsecond, 8)
	la2 := NewLink("a2", 9, 7*sim.Millisecond, 64)
	lb1 := NewLink("b1", 24, 5300*sim.Microsecond, 64)
	lb2 := NewLink("b2", 6, 11*sim.Millisecond, 64)
	lb1.LossRate = 0.2
	sa, sb := &sink{net: n}, &sink{net: n}
	ra := NewRoute(sa, la1, la2)
	rb := NewRoute(sb, lb1, lb2)
	for i := 0; i < 60; i++ {
		i := i
		at := sim.Time(i) * 1370 * sim.Microsecond
		s.At(at, func() {
			p := n.AllocPacket()
			p.Size = 1500
			p.Seq = int64(i)
			n.Send(ra, p)
			q := n.AllocPacket()
			q.Size = 1500
			q.Seq = int64(i)
			n.Send(rb, q)
		})
	}
	// A burst into the small buffer forces drop-tail, and an outage
	// window strands queued and propagating packets on a2.
	s.At(20*sim.Millisecond, func() { sendN(n, ra, 20, 1500) })
	s.At(40*sim.Millisecond, func() { la2.SetDown(true) })
	s.At(55*sim.Millisecond, func() { la2.SetDown(false) })
	return s, []*sink{sa, sb}, []*Link{la1, la2, lb1, lb2}
}

// TestLinkTimelinePinned pins every packet-visible outcome of
// timelineWorld — delivery order, delivery times, per-link arrivals and
// drops, event count — to the values the one-heap-entry-per-packet
// engine produced (commit 6893bb3), which the lane path must reproduce
// exactly.
func TestLinkTimelinePinned(t *testing.T) {
	s, sinks, links := timelineWorld()
	s.Run()
	wantSinks := []struct {
		n      int
		digest uint64 // FNV-1a over "seq@ns;" per delivery
		last   sim.Time
	}{
		{43, 0x79caf62d02218d22, 93263333},
		{49, 0xcf70f872207558a6, 114800000},
	}
	for i, sk := range sinks {
		h := fnv.New64a()
		for j := range sk.got {
			fmt.Fprintf(h, "%d@%d;", sk.got[j], int64(sk.times[j]))
		}
		w := wantSinks[i]
		if len(sk.got) != w.n || h.Sum64() != w.digest || sk.times[len(sk.times)-1] != w.last {
			t.Errorf("sink %d: %d deliveries, digest %#x, last at %d; want %d, %#x, %d",
				i, len(sk.got), h.Sum64(), int64(sk.times[len(sk.times)-1]), w.n, w.digest, int64(w.last))
		}
	}
	wantStats := []LinkStats{
		{Arrivals: 80, Drops: 13},
		{Arrivals: 67, Drops: 24},
		{Arrivals: 60, Drops: 11},
		{Arrivals: 49},
	}
	for i, l := range links {
		if l.Stats != wantStats[i] {
			t.Errorf("link %s stats %+v, want %+v", l.Name, l.Stats, wantStats[i])
		}
	}
	if s.Steps() != 281 || s.Pending() != 0 {
		t.Errorf("Steps %d, Pending %d; want 281, 0", s.Steps(), s.Pending())
	}
}

// A SetDelay decrease with packets in flight lets a later-accepted packet
// arrive first: accepted packets are never retimed, and the new arrivals
// are not held behind them. (These posts are earlier than the lane's
// tail, so they take the ordinary-event fallback.) Times written down
// from the per-packet engine at commit 6893bb3.
func TestSetDelayDecreaseOvertakesInFlight(t *testing.T) {
	s, n := testNet()
	l := NewLink("l", 12, 10*sim.Millisecond, 100) // 1 ms tx per 1500B packet
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	send := func(seq int64) {
		p := n.AllocPacket()
		p.Size, p.Seq = 1500, seq
		n.Send(r, p)
	}
	send(0) // accepted at 0: depart 1, 2 ms; arrive 11, 12 ms
	send(1)
	s.RunUntil(1500 * sim.Microsecond)
	l.SetDelay(2 * sim.Millisecond)
	send(2) // accepted at 1.5 ms behind the queue: depart 3, 4 ms; arrive 5, 6 ms
	send(3)
	if got := s.Pending(); got != 4 {
		t.Fatalf("Pending() = %d with four packets in flight, want 4", got)
	}
	s.Run()
	send(4) // the lane is idle again: depart 13 ms, arrive 15 ms
	s.Run()
	wantSeq := []int64{2, 3, 0, 1, 4}
	wantAt := []sim.Time{5 * sim.Millisecond, 6 * sim.Millisecond, 11 * sim.Millisecond, 12 * sim.Millisecond, 15 * sim.Millisecond}
	if fmt.Sprint(dst.got) != fmt.Sprint(wantSeq) || fmt.Sprint(dst.times) != fmt.Sprint(wantAt) {
		t.Errorf("delivered %v at %v, want %v at %v", dst.got, dst.times, wantSeq, wantAt)
	}
	if l.Stats.Arrivals != 5 || l.Stats.Drops != 0 {
		t.Errorf("stats %+v, want 5 arrivals and no drops", l.Stats)
	}
}

// A busy link is one scheduled-event source however many packets it
// carries; when it drains nothing stays scheduled, and the next packet
// puts it back.
func TestLinkIdleThenBusyAgain(t *testing.T) {
	s, n := testNet()
	l := NewLink("l", 12, 10*sim.Millisecond, 100)
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	sendN(n, r, 3, 1500)
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending() = %d with three packets in flight, want 3", got)
	}
	s.Run()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d on an idle link, want 0", got)
	}
	s.RunUntil(100 * sim.Millisecond)
	sendN(n, r, 1, 1500)
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after the idle link accepted a packet, want 1", got)
	}
	s.Run()
	if len(dst.times) != 4 || dst.times[3] != 111*sim.Millisecond {
		t.Errorf("deliveries at %v, want the fourth at 111ms", dst.times)
	}
}

// recirc re-injects every delivered packet, keeping a fixed population
// in flight.
type recirc struct {
	net   *Net
	route *Route
}

func (r *recirc) Receive(p *Packet) {
	r.net.FreePacket(p)
	q := r.net.AllocPacket()
	q.Size = 1500
	r.net.Send(r.route, q)
}

// TestPacketHopZeroAllocSteadyState is TestPacketHopZeroAlloc with the
// links never idle: 64 packets circulate over two hops, so every post
// queues behind a busy lane's head and every dispatch re-keys it.
func TestPacketHopZeroAllocSteadyState(t *testing.T) {
	s, n := testNet()
	l1 := NewLink("l1", 1000, sim.Millisecond, 1<<20)
	l2 := NewLink("l2", 1000, sim.Millisecond, 1<<20)
	rc := &recirc{net: n}
	rc.route = NewRoute(rc, l1, l2)
	sendN(n, rc.route, 64, 1500)
	s.RunUntil(s.Now() + sim.Second)
	steps := s.Steps()
	allocs := testing.AllocsPerRun(200, func() {
		s.RunUntil(s.Now() + 10*sim.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("steady-state hop path allocated %.1f objects/op, want 0", allocs)
	}
	if s.Steps() == steps || s.Pending() != 64 {
		t.Errorf("world stalled: %d steps during the measurement, Pending %d (want 64)", s.Steps()-steps, s.Pending())
	}
}
