package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mptcp/internal/sim"
)

// sink collects delivered packets.
type sink struct {
	got   []int64
	times []sim.Time
	net   *Net
}

func (s *sink) Receive(p *Packet) {
	s.got = append(s.got, p.Seq)
	s.times = append(s.times, s.net.Sim.Now())
	s.net.FreePacket(p)
}

func testNet() (*sim.Simulator, *Net) {
	s := sim.New(1)
	return s, NewNet(s)
}

func sendN(n *Net, r *Route, count int, size int) {
	for i := 0; i < count; i++ {
		p := n.AllocPacket()
		p.Size = size
		p.Seq = int64(i)
		n.Send(r, p)
	}
}

func TestLinkDeliveryTiming(t *testing.T) {
	s, n := testNet()
	// 12 Mb/s, 10 ms delay: a 1500B packet serialises in 1 ms.
	l := NewLink("l", 12, 10*sim.Millisecond, 100)
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	sendN(n, r, 3, 1500)
	s.Run()
	if len(dst.got) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(dst.got))
	}
	// Packet i departs at (i+1) ms and arrives 10 ms later.
	for i, at := range dst.times {
		want := sim.Time(i+1)*sim.Millisecond + 10*sim.Millisecond
		if at != want {
			t.Errorf("packet %d arrived at %v, want %v", i, at, want)
		}
	}
}

func TestLinkFIFOOrder(t *testing.T) {
	s, n := testNet()
	l := NewLink("l", 100, sim.Millisecond, 1000)
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	sendN(n, r, 100, 1500)
	s.Run()
	for i, seq := range dst.got {
		if seq != int64(i) {
			t.Fatalf("out-of-order delivery: position %d got seq %d", i, seq)
		}
	}
}

func TestDropTail(t *testing.T) {
	s, n := testNet()
	l := NewLink("l", 12, 0, 10)
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	// Burst of 25 packets at t=0 into a 10-packet buffer: 10 accepted,
	// 15 dropped (the queue only drains 1 ms per packet).
	sendN(n, r, 25, 1500)
	s.Run()
	if len(dst.got) != 10 {
		t.Errorf("delivered %d, want 10", len(dst.got))
	}
	if l.Stats.Drops != 15 {
		t.Errorf("drops = %d, want 15", l.Stats.Drops)
	}
	if l.Stats.Arrivals != 25 {
		t.Errorf("arrivals = %d, want 25", l.Stats.Arrivals)
	}
}

func TestQueueDrainsThenAccepts(t *testing.T) {
	s, n := testNet()
	l := NewLink("l", 12, 0, 10)
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	sendN(n, r, 10, 1500)
	// After 5 ms, 5 packets have departed; 5 more should fit.
	s.RunUntil(5 * sim.Millisecond)
	sendN(n, r, 6, 1500)
	s.Run()
	if len(dst.got) != 15 {
		t.Errorf("delivered %d, want 15", len(dst.got))
	}
	if l.Stats.Drops != 1 {
		t.Errorf("drops = %d, want 1", l.Stats.Drops)
	}
}

func TestMultiHopRoute(t *testing.T) {
	s, n := testNet()
	l1 := NewLink("l1", 12, 5*sim.Millisecond, 100)
	l2 := NewLink("l2", 12, 5*sim.Millisecond, 100)
	dst := &sink{net: n}
	r := NewRoute(dst, l1, l2)
	sendN(n, r, 1, 1500)
	s.Run()
	// 1 ms tx + 5 ms prop per hop.
	want := 2 * (1*sim.Millisecond + 5*sim.Millisecond)
	if len(dst.got) != 1 || dst.times[0] != want {
		t.Errorf("arrival at %v, want %v", dst.times[0], want)
	}
}

func TestRandomLoss(t *testing.T) {
	s, n := testNet()
	l := NewLink("l", 1000, 0, 1<<20)
	l.LossRate = 0.1
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	const total = 20000
	sendN(n, r, total, 1500)
	s.Run()
	lossFrac := float64(l.Stats.Drops) / total
	if lossFrac < 0.08 || lossFrac > 0.12 {
		t.Errorf("loss fraction = %.3f, want ~0.10", lossFrac)
	}
	if got := int64(len(dst.got)) + l.Stats.Drops; got != total {
		t.Errorf("delivered + dropped = %d, want %d", got, total)
	}
}

func TestLinkDown(t *testing.T) {
	s, n := testNet()
	l := NewLink("l", 12, 0, 100)
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	l.SetDown(true)
	sendN(n, r, 5, 1500)
	s.Run()
	if len(dst.got) != 0 {
		t.Errorf("down link delivered %d packets", len(dst.got))
	}
	l.SetDown(false)
	sendN(n, r, 5, 1500)
	s.Run()
	if len(dst.got) != 5 {
		t.Errorf("restored link delivered %d packets, want 5", len(dst.got))
	}
}

func TestSetRateMidRun(t *testing.T) {
	s, n := testNet()
	l := NewLink("l", 12, 0, 100)
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	sendN(n, r, 1, 1500) // departs at 1 ms
	s.Run()
	l.SetRate(1.2) // 10x slower: 10 ms per packet
	sendN(n, r, 1, 1500)
	s.Run()
	if dst.times[1]-dst.times[0] != 10*sim.Millisecond {
		t.Errorf("second packet took %v, want 10ms", dst.times[1]-dst.times[0])
	}
}

func TestSetDelayMidRun(t *testing.T) {
	s, n := testNet()
	l := NewLink("l", 12, 10*sim.Millisecond, 100) // 1 ms tx per 1500B packet
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	sendN(n, r, 1, 1500) // departs 1 ms, arrives 11 ms
	s.Run()
	if dst.times[0] != 11*sim.Millisecond {
		t.Fatalf("first packet arrived at %v, want 11ms", dst.times[0])
	}
	l.SetDelay(2 * sim.Millisecond)
	sendN(n, r, 1, 1500) // departs now+1ms, arrives 2 ms later
	s.Run()
	if got := dst.times[1] - dst.times[0]; got != 3*sim.Millisecond {
		t.Errorf("post-change packet took %v after the first, want 3ms (1ms tx + 2ms prop)", got)
	}
}

// Packets the link has already accepted keep the propagation delay that
// applied at acceptance: SetDelay must never retime in-flight (queued or
// propagating) packets.
func TestSetDelayKeepsInFlightPackets(t *testing.T) {
	s, n := testNet()
	l := NewLink("l", 12, 10*sim.Millisecond, 100)
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	sendN(n, r, 2, 1500) // accepted at t=0: depart 1,2 ms; arrive 11,12 ms
	s.RunUntil(1500 * sim.Microsecond)
	l.SetDelay(50 * sim.Millisecond) // one propagating, one still queued
	s.Run()
	want := []sim.Time{11 * sim.Millisecond, 12 * sim.Millisecond}
	for i, at := range dst.times {
		if at != want[i] {
			t.Errorf("in-flight packet %d arrived at %v, want %v (old delay)", i, at, want[i])
		}
	}
	sendN(n, r, 1, 1500) // accepted after the change: new delay applies
	s.Run()
	if got := dst.times[2] - 12*sim.Millisecond; got != 1*sim.Millisecond+50*sim.Millisecond {
		t.Errorf("post-change packet took %v after the queue drained, want 51ms", got)
	}
}

func TestPktPerSecLink(t *testing.T) {
	s, n := testNet()
	l := NewLinkPktPerSec("l", 1000, 0, 100)
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	sendN(n, r, 1, DataPacketSize)
	s.Run()
	if dst.times[0] != sim.Millisecond {
		t.Errorf("1000 pkt/s link: packet departed at %v, want 1ms", dst.times[0])
	}
}

func TestAckSmallerSerialisation(t *testing.T) {
	s, n := testNet()
	l := NewLink("l", 12, 0, 100)
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	sendN(n, r, 1, 40)
	s.Run()
	bits := 40.0 * 8
	want := sim.Time(bits / 12e6 * float64(sim.Second))
	if dst.times[0] != want {
		t.Errorf("40B packet departed at %v, want %v", dst.times[0], want)
	}
}

func TestPacketFreelist(t *testing.T) {
	_, n := testNet()
	p1 := n.AllocPacket()
	p1.Seq = 99
	n.FreePacket(p1)
	p2 := n.AllocPacket()
	if p2.Seq != 0 {
		t.Error("recycled packet not zeroed")
	}
	if p1 != p2 {
		t.Error("freelist did not recycle the packet")
	}
}

// Freeing a packet twice would hand it to two owners later; the second
// free must panic instead.
func TestFreePacketTwicePanics(t *testing.T) {
	_, n := testNet()
	p := n.AllocPacket()
	n.FreePacket(p)
	defer func() {
		if recover() == nil {
			t.Fatal("second FreePacket of the same packet did not panic")
		}
	}()
	n.FreePacket(p)
}

// LivePackets counts what was allocated and not yet freed, whether the
// packet is held by the caller, queued, propagating, or dropped and
// freed by a link.
func TestLivePackets(t *testing.T) {
	s, n := testNet()
	l := NewLink("l", 12, sim.Millisecond, 3)
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	held := n.AllocPacket()
	sendN(n, r, 10, 1500) // 3 queued, 7 dropped at once
	if got := n.LivePackets(); got != 4 {
		t.Errorf("live = %d with 3 queued and 1 held, want 4", got)
	}
	s.Run()
	if got := n.LivePackets(); got != 1 {
		t.Errorf("live = %d after the link drained, want the 1 held", got)
	}
	n.FreePacket(held)
	if got := n.LivePackets(); got != 0 {
		t.Errorf("live = %d after freeing everything, want 0", got)
	}
}

// Packets come in slabs: driving a Net to 4 096 live packets costs a
// few dozen allocations (the slabs and the freelist's growth), not one
// per packet.
func TestPacketSlabAllocs(t *testing.T) {
	const live = 4096
	held := make([]*Packet, live)
	allocs := testing.AllocsPerRun(5, func() {
		_, n := testNet()
		for i := range held {
			held[i] = n.AllocPacket()
		}
		if n.LivePackets() != live {
			t.Fatalf("live = %d, want %d", n.LivePackets(), live)
		}
	})
	if allocs >= 64 {
		t.Errorf("4096 live packets took %.0f allocations, want < 64", allocs)
	}
}

// Property: per-link conservation — once the link drains, every packet
// offered was delivered or counted as exactly one drop, including across
// random outages that strand queued and propagating packets.
func TestConservationProperty(t *testing.T) {
	prop := func(counts []uint8, flips []uint16, qcap uint8) bool {
		s := sim.New(11)
		n := NewNet(s)
		cap := int(qcap%64) + 1
		l := NewLink("l", 12, sim.Millisecond, cap)
		dst := &sink{net: n}
		r := NewRoute(dst, l)
		total := 0
		for i, c := range counts {
			at := sim.Time(i) * sim.Millisecond
			k := int(c % 16)
			total += k
			s.At(at, func() { sendN(n, r, k, 1500) })
		}
		// Outages: flips at random instants over the first ~51 ms, while
		// packets are offered, queued and propagating, alternately taking
		// the link down and up; it is up again for good at 60 ms. A packet
		// stranded by an outage is one drop, so a double count or a lost
		// count breaks the sum below.
		for i, f := range flips {
			down := i%2 == 0
			s.At(sim.Time(f%1024)*50*sim.Microsecond, func() { l.SetDown(down) })
		}
		s.At(60*sim.Millisecond, func() { l.SetDown(false) })
		s.Run()
		return int64(len(dst.got))+l.Stats.Drops == int64(total) &&
			l.Stats.Arrivals == int64(total)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

// Property: the queue never exceeds its capacity.
func TestQueueBoundProperty(t *testing.T) {
	prop := func(bursts []uint8, qcap uint8) bool {
		s := sim.New(13)
		n := NewNet(s)
		cap := int(qcap%32) + 1
		l := NewLink("l", 12, 0, cap)
		dst := &sink{net: n}
		r := NewRoute(dst, l)
		ok := true
		for i, c := range bursts {
			at := sim.Time(i) * 500 * sim.Microsecond
			k := int(c % 8)
			s.At(at, func() {
				sendN(n, r, k, 1500)
				if l.QueueLen(s.Now()) > cap {
					ok = false
				}
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

// Packets stranded in the queue when the link goes down are dropped, each
// counted once, so loss stats stay honest across the §5 mobility outages.
func TestSetDownStrandsQueuedPackets(t *testing.T) {
	s, n := testNet()
	l := NewLink("l", 12, 0, 100)
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	sendN(n, r, 10, 1500)
	s.RunUntil(2 * sim.Millisecond) // 2 departed
	l.SetDown(true)
	s.Run()
	if len(dst.got) != 2 {
		t.Errorf("delivered %d packets, want 2 (rest stranded)", len(dst.got))
	}
	if l.Stats.Drops != 8 {
		t.Errorf("drops = %d, want 8 stranded", l.Stats.Drops)
	}
	// Conservation: everything offered was delivered or dropped.
	if int64(len(dst.got))+l.Stats.Drops != l.Stats.Arrivals {
		t.Errorf("conservation violated: %d delivered + %d dropped != %d arrivals",
			len(dst.got), l.Stats.Drops, l.Stats.Arrivals)
	}
}

// drain is an endpoint that frees packets without recording them.
type drain struct{ net *Net }

func (d *drain) Receive(p *Packet) { d.net.FreePacket(p) }

// The packet-hop path must be allocation-free once the world is warm:
// every hop reuses a pooled packet, a typed event record in the heap's
// backing array, and no closures.
func TestPacketHopZeroAlloc(t *testing.T) {
	s, n := testNet()
	l1 := NewLink("l1", 1000, sim.Millisecond, 1<<20)
	l2 := NewLink("l2", 1000, sim.Millisecond, 1<<20)
	dst := &drain{net: n}
	r := NewRoute(dst, l1, l2)
	for i := 0; i < 2048; i++ { // warm freelist, heap and queue arrays
		p := n.AllocPacket()
		p.Size = 1500
		n.Send(r, p)
	}
	s.Run()
	allocs := testing.AllocsPerRun(200, func() {
		p := n.AllocPacket()
		p.Size = 1500
		n.Send(r, p)
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("packet-hop path allocated %.1f objects/op, want 0", allocs)
	}
}

// SendAt (the jittered-transmission path) must behave like a deferred
// Send: nothing reaches the link before the injection time, then the
// same delivery, with no closure.
func TestSendAtDefersInjection(t *testing.T) {
	s, n := testNet()
	l := NewLink("l", 12, 0, 100)
	dst := &sink{net: n}
	r := NewRoute(dst, l)
	p := n.AllocPacket()
	p.Size = 1500
	n.SendAt(5*sim.Millisecond, r, p)
	s.RunUntil(5*sim.Millisecond - 1)
	if l.Stats.Arrivals != 0 || len(dst.got) != 0 {
		t.Errorf("packet reached the link before its injection time")
	}
	s.Run()
	if len(dst.got) != 1 || dst.times[0] != 6*sim.Millisecond {
		t.Fatalf("delivery at %v, want 6ms", dst.times)
	}
	// at <= now sends immediately.
	p2 := n.AllocPacket()
	p2.Size = 1500
	n.SendAt(s.Now(), r, p2)
	if l.Stats.Arrivals != 2 {
		t.Errorf("immediate SendAt did not inject")
	}
	s.Run()
	if len(dst.got) != 2 {
		t.Errorf("immediate SendAt lost the packet")
	}
}
