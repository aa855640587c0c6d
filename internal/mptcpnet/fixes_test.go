package mptcpnet

// Regression tests for the RTT/ordering bugfix sweep: Karn suppression of
// retransmission-ambiguous RTT samples, the 60 s RTO clamp, in-subflow
// FIFO transmission order, FIN-timer termination, and writer lifecycle.
// They run over a deterministic in-memory PacketConn, not real sockets,
// so ordering assertions are exact.

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// memConn is a deterministic in-memory net.PacketConn: every WriteTo is
// recorded in call order and, when wired to a peer, delivered FIFO and
// lossless.
type memConn struct {
	addr memAddr
	from net.Addr // what ReadFrom reports, boxed once

	// free, when non-nil, switches the conn to its allocation-free mode
	// (preallocate): WriteTo copies into a buffer taken from free instead
	// of a fresh one and records nothing, and the peer's ReadFrom hands
	// the buffer back.
	free chan []byte

	mu     sync.Mutex
	writes [][]byte
	closed bool
	inbox  chan []byte
	peer   *memConn
}

func newMemConn(name string) *memConn {
	return &memConn{addr: memAddr(name), from: memAddr("peer"), inbox: make(chan []byte, 4096)}
}

// wire cross-connects two memConns into a lossless FIFO pipe.
func wire(a, b *memConn) {
	a.peer, b.peer = b, a
	a.from, b.from = b.addr, a.addr
}

// preallocate gives the conn n datagram buffers up front, so that the
// fake itself allocates nothing per WriteTo/ReadFrom.
func (c *memConn) preallocate(n int) {
	c.free = make(chan []byte, n)
	for i := 0; i < n; i++ {
		c.free <- make([]byte, headerSize+MaxPayload)
	}
}

func (c *memConn) ReadFrom(p []byte) (int, net.Addr, error) {
	buf, ok := <-c.inbox
	if !ok {
		return 0, nil, net.ErrClosed
	}
	n := copy(p, buf)
	if c.peer != nil && c.peer.free != nil {
		c.peer.free <- buf[:cap(buf)]
	}
	return n, c.from, nil
}

func (c *memConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	if c.free != nil {
		select {
		case b := <-c.free:
			c.peer.deliver(b[:copy(b, p)])
		default: // every buffer in flight: drop, like a saturated path
		}
		return len(p), nil
	}
	b := append([]byte(nil), p...)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	c.writes = append(c.writes, b)
	c.mu.Unlock()
	if c.peer != nil {
		c.peer.deliver(b)
	}
	return len(p), nil
}

func (c *memConn) deliver(b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	select {
	case c.inbox <- b:
	default: // inbox full: drop, like a saturated path
	}
}

func (c *memConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.inbox)
	}
	return nil
}

func (c *memConn) LocalAddr() net.Addr              { return c.addr }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// typedWrites returns the recorded writes of the given segment type, in
// call order.
func (c *memConn) typedWrites(typ byte) []header {
	c.mu.Lock()
	defer c.mu.Unlock()
	var hs []header
	for _, b := range c.writes {
		var h header
		if h.unmarshal(b) == nil && h.Type == typ {
			hs = append(hs, h)
		}
	}
	return hs
}

func newTestSender(t *testing.T, cfg Config) (*Sender, *memConn) {
	t.Helper()
	c := newMemConn("snd")
	t.Cleanup(func() { c.Close() })
	return NewSender(42, []net.PacketConn{c}, []net.Addr{memAddr("rcv")}, cfg), c
}

// waitWrites blocks until the writer goroutine has flushed at least n
// writes of the given type.
func waitWrites(t *testing.T, c *memConn, typ byte, n int) []header {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		hs := c.typedWrites(typ)
		if len(hs) >= n {
			return hs
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer flushed %d %d-type segments, want %d", len(hs), typ, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// A cumulative ACK that covers a retransmitted segment is ambiguous
// (Karn's rule) and must not feed the RTT estimator.
func TestRetxAckSuppressesRTTSample(t *testing.T) {
	s, _ := newTestSender(t, Config{})
	if _, err := s.Write(make([]byte, 2*MaxPayload)); err != nil { // segments 0 and 1
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // make elapsedMicros() strictly positive
	sf := s.subs[0]

	s.mu.Lock()
	sf.meta.at(0).retx = true // segment 0 was retransmitted
	s.mu.Unlock()
	s.handleAck(sf, &header{Type: typeAck, Seq: 1, DataSeq: 1, Window: 64, Echo: 0})
	s.mu.Lock()
	srtt := sf.srtt
	s.mu.Unlock()
	if srtt != 0 {
		t.Errorf("ambiguous ACK fed the RTT estimator: srtt = %v, want 0", srtt)
	}

	// The next ACK covers only the cleanly-delivered segment 1: sampling
	// must resume.
	s.handleAck(sf, &header{Type: typeAck, Seq: 2, DataSeq: 2, Window: 64, Echo: 0})
	s.mu.Lock()
	srtt = sf.srtt
	s.mu.Unlock()
	if srtt <= 0 {
		t.Errorf("clean ACK did not feed the RTT estimator: srtt = %v", srtt)
	}
}

// The computed RTO must clamp to the 60 s maximum the simulator transport
// applies (RFC 6298 §2.5), however wild the samples.
func TestRTOClampedToMax(t *testing.T) {
	s, _ := newTestSender(t, Config{})
	sf := s.subs[0]
	s.mu.Lock()
	sf.sampleRTT(10 * time.Hour)
	rto := sf.rto
	s.mu.Unlock()
	if rto != maxRTO {
		t.Errorf("rto = %v after a 10h sample, want clamp at %v", rto, maxRTO)
	}
}

// In-subflow transmissions must hit the socket in sequence order: the
// per-subflow writer goroutine serialises what the old one-goroutine-per-
// segment design left to scheduler luck.
func TestInSubflowSendOrderFIFO(t *testing.T) {
	s, c := newTestSender(t, Config{})
	const segs = 48 // below the 64-segment default flow-control edge
	s.mu.Lock()
	s.cc[0].Cwnd = segs // window never binds
	s.mu.Unlock()
	if _, err := s.Write(make([]byte, segs*MaxPayload)); err != nil {
		t.Fatal(err)
	}
	hs := waitWrites(t, c, typeData, segs)
	for i, h := range hs[:segs] {
		if h.Seq != int64(i) {
			t.Fatalf("socket write %d carries seq %d: transmissions reordered", i, h.Seq)
		}
	}
}

// newTestSender2 is a two-subflow sender over unwired memConns: nothing
// is ever acknowledged.
func newTestSender2(t *testing.T, cfg Config) (*Sender, [2]*memConn) {
	t.Helper()
	cs := [2]*memConn{newMemConn("snd0"), newMemConn("snd1")}
	t.Cleanup(func() { cs[0].Close(); cs[1].Close() })
	s := NewSender(42, []net.PacketConn{cs[0], cs[1]}, []net.Addr{memAddr("rcv0"), memAddr("rcv1")}, cfg)
	return s, cs
}

// After a timeout the subflow's outstanding data must be reinjected in
// data-sequence order. The scoreboard used to be a map, so onRTO filled
// the reinjection queue in random order and the other subflow carried
// the stream's head last as often as first.
func TestReinjectionLeavesInSequenceOrder(t *testing.T) {
	s, cs := newTestSender2(t, Config{})
	const held = 8 // segments stranded on subflow 0
	s.mu.Lock()
	s.cc[0].Cwnd, s.cc[1].Cwnd = held, 1
	s.subs[0].rto, s.subs[1].rto = 10*time.Millisecond, time.Hour // only subflow 0 times out
	s.mu.Unlock()
	if _, err := s.Write(make([]byte, (held+1)*MaxPayload)); err != nil {
		t.Fatal(err)
	}
	stranded := waitWrites(t, cs[0], typeData, held)[:held]
	waitWrites(t, cs[1], typeData, 1)
	s.mu.Lock()
	s.cc[1].Cwnd = 64 // room for the reinjections when the RTO pumps
	s.mu.Unlock()

	reinj := waitWrites(t, cs[1], typeData, 1+held)[1 : 1+held]
	for i, h := range reinj {
		if h.DataSeq != stranded[i].DataSeq {
			t.Fatalf("reinjection %d carries data seq %d, want %d (subflow 0 sent %v in order)",
				i, h.DataSeq, stranded[i].DataSeq, dataSeqs(stranded))
		}
	}
	if st := s.Stats(); st.Reinjects < held {
		t.Errorf("Reinjects = %d, want >= %d", st.Reinjects, held)
	}
}

func dataSeqs(hs []header) []int64 {
	out := make([]int64, len(hs))
	for i, h := range hs {
		out[i] = h.DataSeq
	}
	return out
}

// Timer.Stop cannot recall a callback that is already waiting for the
// connection lock: an onRTO that runs before the armed deadline (it lost
// the race with the ACK that re-armed the timer) must change nothing.
func TestStaleRTOFireIsIgnored(t *testing.T) {
	s, cs := newTestSender2(t, Config{})
	s.mu.Lock()
	s.cc[0].Cwnd, s.cc[1].Cwnd = 4, 4
	s.mu.Unlock()
	if _, err := s.Write(make([]byte, 8*MaxPayload)); err != nil {
		t.Fatal(err)
	}
	waitWrites(t, cs[0], typeData, 4)
	waitWrites(t, cs[1], typeData, 4)

	for _, sf := range s.subs {
		sf.onRTO() // the initial 1 s RTO is nowhere near expiry
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, sf := range s.subs {
		if s.cc[i].Cwnd != 4 || sf.rtoStreak != 0 {
			t.Errorf("subflow %d: cwnd = %v, rtoStreak = %d after an early fire, want 4 and 0", i, s.cc[i].Cwnd, sf.rtoStreak)
		}
		if !sf.timerOn || time.Until(sf.deadline) <= 0 {
			t.Errorf("subflow %d: timer not left armed for the remainder", i)
		}
	}
	if s.segsRetx != 0 || s.reinjects != 0 || len(s.reinj) != 0 {
		t.Errorf("early fire retransmitted: segsRetx = %d, reinjects = %d, reinj = %v", s.segsRetx, s.reinjects, s.reinj)
	}
}

// memPipe builds a sender/receiver pair over the in-memory transport.
func memPipe(t *testing.T, cfg Config) (*Sender, *Receiver, *memConn) {
	t.Helper()
	snd, rcv := newMemConn("snd"), newMemConn("rcv")
	wire(snd, rcv)
	t.Cleanup(func() { snd.Close(); rcv.Close() })
	const connID = 7
	rx := NewReceiver(connID, []net.PacketConn{rcv}, 256)
	tx := NewSender(connID, []net.PacketConn{snd}, []net.Addr{memAddr("rcv")}, cfg)
	return tx, rx, snd
}

// drainEOF reads rx to EOF and reports the byte count.
func drainEOF(t *testing.T, rx *Receiver) int {
	t.Helper()
	got := 0
	buf := make([]byte, 32<<10)
	for {
		n, err := rx.Read(buf)
		got += n
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
	}
}

// On a loss-free FIFO pipe there is nothing to recover: any fast
// retransmit would be manufactured by send-side reordering.
func TestNoSpuriousRetxOnCleanPipe(t *testing.T) {
	tx, rx, _ := memPipe(t, Config{})
	const size = 512 << 10
	go func() {
		tx.Write(make([]byte, size)) //nolint:errcheck
		tx.Close()
	}()
	if got := drainEOF(t, rx); got != size {
		t.Fatalf("received %d bytes, want %d", got, size)
	}
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := tx.Stats(); st.SegsRetx != 0 {
		t.Errorf("loss-free pipe saw %d retransmissions, want 0", st.SegsRetx)
	}
}

// Once Wait returns, the FIN retransmission chain must terminate: done is
// closed and no further FIN hits the socket.
func TestFinTimerStopsAfterWait(t *testing.T) {
	cfg := Config{MinRTO: 20 * time.Millisecond}
	tx, rx, snd := memPipe(t, cfg)
	go func() {
		tx.Write(make([]byte, 8<<10)) //nolint:errcheck
		tx.Close()
	}()
	if got := drainEOF(t, rx); got != 8<<10 {
		t.Fatalf("received %d bytes, want %d", got, 8<<10)
	}
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tx.done:
	default:
		t.Fatal("done not closed after Wait succeeded")
	}
	fins := len(snd.typedWrites(typeFin))
	time.Sleep(8 * cfg.MinRTO) // several would-be retransmit intervals
	if later := len(snd.typedWrites(typeFin)); later != fins {
		t.Errorf("FIN count grew from %d to %d after completion: timer chain leaked", fins, later)
	}
}

// Closing a subflow socket under an unfinished sender must abort it:
// done closes (releasing the writer goroutine, FIN chain and RTO
// timers) and the error surfaces, instead of leaking a parked writer per
// abandoned sender.
func TestSocketCloseAbortsSender(t *testing.T) {
	s, c := newTestSender(t, Config{})
	if _, err := s.Write(make([]byte, MaxPayload)); err != nil { // unacked data in flight
		t.Fatal(err)
	}
	c.Close()
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		t.Fatal("done not closed after the subflow socket was closed")
	}
	s.mu.Lock()
	err := s.err
	s.mu.Unlock()
	if err == nil {
		t.Error("socket-close abort should record an error")
	}
}

// With the peer unreachable the FIN chain must not reschedule forever:
// the retry budget aborts the sender instead of leaking timers.
func TestFinChainGivesUpWithoutPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second backoff wait")
	}
	s, _ := newTestSender(t, Config{MinRTO: time.Millisecond})
	s.mu.Lock()
	s.cc[0].Cwnd = 8 // let the data and the FIN leave despite no ACKs
	s.mu.Unlock()
	if _, err := s.Write(make([]byte, 2*MaxPayload)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // sends the FIN; no peer will ever ack
		t.Fatal(err)
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		t.Fatal("FIN chain still running: retry budget did not trip")
	}
	s.mu.Lock()
	err := s.err
	s.mu.Unlock()
	if err == nil {
		t.Error("giving up should record an error")
	}
}

// Read is woken only by an arrival that makes data readable: a segment
// that joins the reorder buffer leaves it parked, and the one that fills
// the gap delivers both.
func TestReadWakesWhenGapFills(t *testing.T) {
	c := newMemConn("rcv")
	t.Cleanup(func() { c.Close() })
	rx := NewReceiver(42, []net.PacketConn{c}, 16)
	defer rx.Close()
	data := func(seq int64, b byte) []byte {
		f := make([]byte, headerSize+1)
		h := header{Type: typeData, ConnID: 42, Seq: seq, DataSeq: seq, Plen: 1}
		h.marshal(f)
		f[headerSize] = b
		sealFrame(f)
		return f
	}
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 8)
		n, _ := io.ReadFull(rx, buf[:2])
		got <- buf[:n]
	}()

	c.deliver(data(1, 'b')) // out of order: held, acknowledged, not readable
	if acks := waitWrites(t, c, typeAck, 1); acks[0].DataSeq != 0 {
		t.Fatalf("data ack after the out-of-order segment = %d, want 0", acks[0].DataSeq)
	}
	select {
	case b := <-got:
		t.Fatalf("Read returned %q with segment 0 still missing", b)
	case <-time.After(20 * time.Millisecond):
	}
	c.deliver(data(0, 'a'))
	select {
	case b := <-got:
		if string(b) != "ab" {
			t.Errorf("Read delivered %q, want \"ab\"", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Read was not woken by the segment that filled the gap")
	}
}
