package mptcpnet

// Regression tests for what the shell owns: in-subflow FIFO transmission
// order, the stale-timer-fire check, writer lifecycle, Read wake-ups, and
// the flow control the receiver's application drives. They run over a deterministic in-memory
// PacketConn, not real sockets, so ordering assertions are exact. (The
// protocol's own rules — RTO clamp, RTT sampling, reinjection order —
// are pinned by internal/proto's event scripts.)

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
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

	// drop, when non-nil, is consulted for every datagram written: true
	// loses it. Set before traffic starts.
	drop func(b []byte) bool

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
	if c.peer != nil && (c.drop == nil || !c.drop(b)) {
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

// segFrame is the sealed datagram of one data segment as a sender would
// put it on the wire.
func segFrame(connID uint64, seq, dataSeq int64, flags byte, payload string) []byte {
	f := make([]byte, headerSize+len(payload))
	h := header{Type: typeData, Flags: flags, ConnID: connID, Seq: seq, DataSeq: dataSeq, Plen: uint16(len(payload))}
	h.marshal(f)
	copy(f[headerSize:], payload)
	sealFrame(f)
	return f
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

// In-subflow transmissions must hit the socket in sequence order: the
// per-subflow writer goroutine serialises what a goroutine per segment
// would leave to scheduler luck.
func TestInSubflowSendOrderFIFO(t *testing.T) {
	tx, rx, snd := memPipe(t, Config{}, 256)
	const segs = 200
	go func() {
		tx.Write(make([]byte, segs*MaxPayload)) //nolint:errcheck
		tx.Close()
	}()
	if got := drainEOF(t, rx); got != segs*MaxPayload {
		t.Fatalf("received %d bytes, want %d", got, segs*MaxPayload)
	}
	for i, h := range waitWrites(t, snd, typeData, segs)[:segs] {
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

// Timer.Stop cannot recall a callback that is already waiting for the
// connection lock: an onRTO that runs before the armed deadline (it lost
// the race with the ACK that re-armed the timer) must change nothing.
func TestStaleRTOFireIsIgnored(t *testing.T) {
	s, cs := newTestSender2(t, Config{})
	if _, err := s.Write(make([]byte, 8*MaxPayload)); err != nil {
		t.Fatal(err)
	}
	waitWrites(t, cs[0], typeData, 2) // the initial window of each subflow
	waitWrites(t, cs[1], typeData, 2)

	for _, sf := range s.subs {
		sf.onRTO() // the initial 1 s RTO is nowhere near expiry
	}
	for i := range s.subs {
		if cw := s.Cwnd(i); cw != 2 {
			t.Errorf("subflow %d: cwnd = %v after an early fire, want the untouched 2", i, cw)
		}
	}
	if st := s.Stats(); st.SegsRetx != 0 || st.Reinjects != 0 {
		t.Errorf("early fire retransmitted: SegsRetx = %d, Reinjects = %d", st.SegsRetx, st.Reinjects)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, sf := range s.subs {
		if !sf.rto.on || time.Until(sf.rto.deadline) <= 0 {
			t.Errorf("subflow %d: timer not left armed for the remainder", i)
		}
	}
}

// memPipe builds a sender/receiver pair over the in-memory transport.
func memPipe(t *testing.T, cfg Config, bufSegments int64) (*Sender, *Receiver, *memConn) {
	t.Helper()
	snd, rcv := newMemConn("snd"), newMemConn("rcv")
	wire(snd, rcv)
	t.Cleanup(func() { snd.Close(); rcv.Close() })
	const connID = 7
	rx := NewReceiver(connID, []net.PacketConn{rcv}, bufSegments)
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

// received is the count of distinct data segments rx has delivered in
// order. The end-of-stream segment has a data sequence and is one of
// them: a finished stream of n segments reads n+1.
func received(rx *Receiver) int64 {
	rx.mu.Lock()
	defer rx.mu.Unlock()
	return rx.core.DataRcvNxt()
}

// On a loss-free FIFO pipe there is nothing to recover: any fast
// retransmit would be manufactured by send-side reordering.
func TestNoSpuriousRetxOnCleanPipe(t *testing.T) {
	tx, rx, _ := memPipe(t, Config{}, 256)
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

// Closing a subflow socket under an unfinished sender must abort it:
// done closes (releasing the writer goroutine and the RTO timers) and
// the error surfaces, instead of leaking a parked writer per abandoned
// sender.
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

// Read is woken only by an arrival that makes data readable: a segment
// that joins the reorder buffer leaves it parked, and the one that fills
// the gap delivers both.
func TestReadWakesWhenGapFills(t *testing.T) {
	c := newMemConn("rcv")
	t.Cleanup(func() { c.Close() })
	rx := NewReceiver(42, []net.PacketConn{c}, 16)
	defer rx.Close()
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 8)
		n, _ := io.ReadFull(rx, buf[:2])
		got <- buf[:n]
	}()

	c.deliver(segFrame(42, 1, 1, 0, "b")) // out of order: held, acknowledged, not readable
	if acks := waitWrites(t, c, typeAck, 1); acks[0].DataSeq != 0 {
		t.Fatalf("data ack after the out-of-order segment = %d, want 0", acks[0].DataSeq)
	}
	select {
	case b := <-got:
		t.Fatalf("Read returned %q with segment 0 still missing", b)
	case <-time.After(20 * time.Millisecond):
	}
	c.deliver(segFrame(42, 0, 0, 0, "a"))
	select {
	case b := <-got:
		if string(b) != "ab" {
			t.Errorf("Read delivered %q, want \"ab\"", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Read was not woken by the segment that filled the gap")
	}
}

// An application that stops reading must stop the sender: unread data
// counts against the shared buffer, so the receiver never holds more than
// bufSegments and Write blocks on backpressure, with the send buffer no
// larger than the window plus one run; draining Read lets the rest
// through.
func TestUnreadDataIsFlowControlled(t *testing.T) {
	const bufSegments = defaultWindow             // what the sender assumes before the first ACK
	const segs = 2*(bufSegments+maxRunSegs) + 500 // more than the receiver and Write's backlog hold together
	tx, rx, _ := memPipe(t, Config{}, bufSegments)
	written := make(chan error, 1)
	go func() {
		for i := 0; i < segs; i++ {
			if _, err := tx.Write([]byte{byte(i)}); err != nil { // one segment each
				written <- err
				return
			}
		}
		written <- tx.Close()
	}()
	// Nobody reads: the receiver fills to exactly its buffer and stays.
	deadline := time.Now().Add(5 * time.Second)
	for received(rx) < bufSegments {
		if time.Now().After(deadline) {
			t.Fatalf("receiver holds %d segments, want the buffer to fill to %d", received(rx), bufSegments)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond) // let a zero-window probe (every 200 ms) come and go
	if got := received(rx); got != bufSegments {
		t.Errorf("receiver holds %d unread segments, want exactly the %d-segment buffer", got, bufSegments)
	}
	if _, _, overflow := rx.Stats(); overflow != 0 {
		t.Errorf("sender overran the advertised window %d times", overflow)
	}
	tx.mu.Lock()
	held := tx.dataEnd - tx.freed
	tx.mu.Unlock()
	if held > bufSegments+maxRunSegs {
		t.Errorf("sender holds %d payload frames with the receiver stalled, want at most the window plus one run, %d", held, bufSegments+maxRunSegs)
	}
	select {
	case err := <-written:
		t.Fatalf("Write of %d segments returned (%v) with the receiver stalled at %d", segs, err, bufSegments)
	default:
	}
	if got := drainEOF(t, rx); got != segs {
		t.Fatalf("received %d bytes after draining, want %d", got, segs)
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Window updates and probe answers are cumulative ACKs that settle
	// what was owed, not extras: even with the window shut or nearly so
	// for much of the transfer there are fewer ACKs than segments.
	if acks := tx.Stats().AcksRecvd; acks > segs {
		t.Errorf("%d ACKs for %d segments, want window updates to replace delayed ACKs, not add to them", acks, segs)
	}
}

// A window update lost in flight must not wedge the connection: the
// sender's persist timer probes, and the probe's ACK carries the window.
func TestLostWindowUpdateRecoveredByProbe(t *testing.T) {
	const bufSegments, segs = defaultWindow, 3 * defaultWindow
	snd, rcv := newMemConn("snd"), newMemConn("rcv")
	wire(snd, rcv)
	t.Cleanup(func() { snd.Close(); rcv.Close() })
	var lost atomic.Int64
	rcv.drop = func(b []byte) bool { // lose every window update: an ACK echoing no timestamp
		var h header
		if h.unmarshal(b) != nil || h.Type != typeAck || h.Echo != 0 {
			return false
		}
		if h.Window == 0 || h.Flags&flagSack != 0 {
			t.Errorf("window update advertises window %d, flags %#x: want an open window and no SACK", h.Window, h.Flags)
		}
		lost.Add(1)
		return true
	}
	rx := NewReceiver(7, []net.PacketConn{rcv}, bufSegments)
	tx := NewSender(7, []net.PacketConn{snd}, []net.Addr{memAddr("rcv")}, Config{})
	go func() {
		tx.Write(make([]byte, segs*MaxPayload)) //nolint:errcheck
		tx.Close()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for received(rx) < bufSegments { // window shut, sender idle
		if time.Now().After(deadline) {
			t.Fatalf("receiver holds %d segments, want the buffer to fill to %d", received(rx), bufSegments)
		}
		time.Sleep(time.Millisecond)
	}
	if got := drainEOF(t, rx); got != segs*MaxPayload {
		t.Fatalf("received %d bytes, want %d", got, segs*MaxPayload)
	}
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if lost.Load() == 0 {
		t.Error("no window update was sent (and lost): the scenario was not exercised")
	}
	if len(snd.typedWrites(typeProbe)) == 0 {
		t.Error("the transfer completed without a zero-window probe")
	}
}
