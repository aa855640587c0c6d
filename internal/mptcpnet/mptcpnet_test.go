package mptcpnet

import (
	"bytes"
	"crypto/sha256"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"mptcp/internal/cc"
	"mptcp/internal/chaos"
	"mptcp/internal/sched"
)

// pipePair builds one emulated UDP path on loopback and returns the
// sender-side and receiver-side PacketConns plus the receiver's address.
func pipePair(t *testing.T, delay time.Duration, loss, rateBps float64, seed int64) (snd net.PacketConn, rcv net.PacketConn, raddr net.Addr) {
	t.Helper()
	a, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	// Shape both directions identically.
	return chaos.New(a, chaos.PathConfig{Delay: delay, LossRate: loss, RateBps: rateBps}, seed),
		chaos.New(b, chaos.PathConfig{Delay: delay, LossRate: loss / 4}, seed+1), // ACK path: lighter loss, no cap
		b.LocalAddr()
}

// transfer pushes size bytes through a multipath connection and verifies
// integrity end to end.
func transfer(t *testing.T, size int, paths int, mk func(i int) (net.PacketConn, net.PacketConn, net.Addr), cfg Config, timeout time.Duration) (*Sender, *Receiver) {
	t.Helper()
	var sConns, rConns []net.PacketConn
	var remotes []net.Addr
	for i := 0; i < paths; i++ {
		s, r, ra := mk(i)
		sConns = append(sConns, s)
		rConns = append(rConns, r)
		remotes = append(remotes, ra)
	}
	const connID = 77
	rx := NewReceiver(connID, rConns, 512)
	tx := NewSender(connID, sConns, remotes, cfg)

	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	wantSum := sha256.Sum256(data)

	errc := make(chan error, 1)
	go func() {
		if _, err := tx.Write(data); err != nil {
			errc <- err
			return
		}
		errc <- tx.Close()
	}()

	got := make([]byte, 0, size)
	buf := make([]byte, 64<<10)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			n, err := rx.Read(buf)
			got = append(got, buf[:n]...)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatalf("transfer timed out: got %d/%d bytes", len(got), size)
	}
	if err := <-errc; err != nil {
		t.Fatalf("write: %v", err)
	}
	if len(got) != size {
		t.Fatalf("received %d bytes, want %d", len(got), size)
	}
	if sha256.Sum256(got) != wantSum {
		t.Fatal("data corrupted in transit")
	}
	return tx, rx
}

func TestWireRoundTrip(t *testing.T) {
	h := header{
		Type: typeAck, Flags: flagSack, Subflow: 3, ConnID: 12345,
		Seq: 111, DataSeq: 222, Aux: 333, Window: 44, Echo: 55, Plen: 0,
	}
	buf := make([]byte, headerSize)
	h.marshal(buf)
	sealFrame(buf)
	var g header
	if err := g.unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Errorf("round trip: got %+v want %+v", g, h)
	}
}

// Every single-bit flip anywhere in a sealed frame must be caught by the
// checksum — this is the property that turns the chaos layer's bit
// corruption into counted drops instead of decoded garbage.
func TestWireRejectsCorruptedFrame(t *testing.T) {
	h := header{
		Type: typeData, Subflow: 1, ConnID: 99, Seq: 7, DataSeq: 8,
		Plen: 32,
	}
	frame := make([]byte, headerSize+32)
	h.marshal(frame)
	for i := headerSize; i < len(frame); i++ {
		frame[i] = byte(i * 7)
	}
	sealFrame(frame)
	var g header
	if err := g.unmarshal(frame); err != nil {
		t.Fatalf("sealed frame rejected: %v", err)
	}
	for i := 0; i < len(frame); i++ {
		for bit := 0; bit < 8; bit++ {
			frame[i] ^= 1 << bit
			if err := g.unmarshal(frame); err == nil {
				t.Fatalf("flip of byte %d bit %d went undetected", i, bit)
			}
			frame[i] ^= 1 << bit
		}
	}
}

func TestWireRejectsShort(t *testing.T) {
	var h header
	if err := h.unmarshal(make([]byte, headerSize-1)); err == nil {
		t.Error("short packet accepted")
	}
	// Payload length larger than the datagram must be rejected even when
	// the frame is correctly sealed.
	good := header{Type: typeData, Plen: 100}
	buf := make([]byte, headerSize)
	good.marshal(buf)
	sealFrame(buf)
	if err := h.unmarshal(buf); err == nil {
		t.Error("overlong Plen accepted")
	}
}

// rcvState is what a receiver's core shows of its sequence state.
type rcvState struct {
	subRcvNxt, dataRcvNxt, window, readable, delivered, dupData, finSeq int64
	delayArmed                                                          bool
}

func snapshot(rx *Receiver) (st rcvState, overflow int64) {
	rx.mu.Lock()
	defer rx.mu.Unlock()
	c := &rx.core
	return rcvState{c.SubRcvNxt(0), c.DataRcvNxt(), c.Window(), c.Readable(), c.SubDelivered(0), c.DupData,
		rx.finSeq, rx.held[0].tm.on}, c.Overflow
}

// A sealed, well-formed data frame whose subflow sequence lies 2⁴⁰ above
// the cumulative ack is refused like a buffer overflow: no ACK, no state,
// and no ring sized to reach it. A segment in the window is still
// acknowledged as usual afterwards.
func TestFarSubflowSequenceRefused(t *testing.T) {
	c := newMemConn("rcv")
	defer c.Close()
	rx := NewReceiver(42, []net.PacketConn{c}, 16)
	defer rx.Close()
	far := segFrame(42, 1<<40, 0, flagFin, "x")
	before, _ := snapshot(rx)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c.deliver(far)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if recvd, _, _ := rx.Stats(); recvd == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the frame was never received")
		}
	}
	runtime.ReadMemStats(&m1)
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 16<<10 {
		t.Errorf("the frame cost %d B of heap, want under 16 KiB", grew)
	}
	time.Sleep(5 * ackDelay) // room for a delayed ACK that must not come
	if acks := c.typedWrites(typeAck); len(acks) != 0 {
		t.Errorf("the refused frame drew %d ACKs: %+v", len(acks), acks)
	}
	if after, overflow := snapshot(rx); after != before || overflow != 1 {
		t.Errorf("state %+v -> %+v, overflow count %d; want it unchanged and the drop counted", before, after, overflow)
	}

	c.deliver(segFrame(42, 0, 0, flagFin, "y")) // the stream's one segment: acknowledged at once
	h := waitWrites(t, c, typeAck, 1)[0]
	if h.Seq != 1 || h.DataSeq != 1 || h.Window != 15 || h.Flags&flagSack != 0 {
		t.Errorf("in-window segment acknowledged with %+v, want seq 1, data 1, window 15, no SACK", h)
	}
}

func TestSinglePathClean(t *testing.T) {
	transfer(t, 200<<10, 1, func(i int) (net.PacketConn, net.PacketConn, net.Addr) {
		return pipePair(t, time.Millisecond, 0, 0, int64(i))
	}, Config{}, 30*time.Second)
}

func TestTwoPathsClean(t *testing.T) {
	tx, rx := transfer(t, 500<<10, 2, func(i int) (net.PacketConn, net.PacketConn, net.Addr) {
		return pipePair(t, time.Millisecond, 0, 0, int64(i))
	}, Config{}, 30*time.Second)
	if rx.SubflowReceived(0) == 0 || rx.SubflowReceived(1) == 0 {
		t.Errorf("both subflows should carry data: %d/%d", rx.SubflowReceived(0), rx.SubflowReceived(1))
	}
	if st := tx.Stats(); st.SegsSent == 0 {
		t.Error("sender reported no segments")
	}
}

func TestLossyPathRecovery(t *testing.T) {
	tx, _ := transfer(t, 300<<10, 2, func(i int) (net.PacketConn, net.PacketConn, net.Addr) {
		return pipePair(t, 2*time.Millisecond, 0.03, 0, 100+int64(i))
	}, Config{}, 60*time.Second)
	if st := tx.Stats(); st.SegsRetx == 0 {
		t.Error("3% loss must cause retransmissions")
	}
}

func TestHeterogeneousPaths(t *testing.T) {
	// A fast clean path and a slow lossy one, as in §5.
	transfer(t, 400<<10, 2, func(i int) (net.PacketConn, net.PacketConn, net.Addr) {
		if i == 0 {
			return pipePair(t, time.Millisecond, 0.005, 20e6, 200)
		}
		return pipePair(t, 20*time.Millisecond, 0.02, 2e6, 201)
	}, Config{}, 60*time.Second)
}

func TestCoupledAlgorithmsOverSockets(t *testing.T) {
	// Every registered multipath algorithm must complete a transfer over
	// real sockets — including the kernel-family successors, whose
	// RTT/loss hooks are exercised through the mptcpnet wiring here.
	for _, name := range []string{"EWTCP", "COUPLED", "SEMICOUPLED", "MPTCP", "OLIA", "BALIA", "WVEGAS"} {
		name := name
		t.Run(name, func(t *testing.T) {
			alg, err := cc.New(name)
			if err != nil {
				t.Fatal(err)
			}
			transfer(t, 100<<10, 2, func(i int) (net.PacketConn, net.PacketConn, net.Addr) {
				return pipePair(t, time.Millisecond, 0.01, 0, 300+int64(i))
			}, Config{Alg: alg}, 60*time.Second)
		})
	}
}

func TestSchedulerRoundRobin(t *testing.T) {
	// Rate-limited paths so the transfer spans many RTTs and the
	// scheduler's balance is observable.
	_, rx := transfer(t, 300<<10, 2, func(i int) (net.PacketConn, net.PacketConn, net.Addr) {
		return pipePair(t, time.Millisecond, 0, 10e6, 400+int64(i))
	}, Config{Sched: sched.RoundRobin{}}, 30*time.Second)
	// Round robin on identical paths should split roughly evenly.
	a, b := float64(rx.SubflowReceived(0)), float64(rx.SubflowReceived(1))
	if a == 0 || b == 0 {
		t.Fatalf("a subflow carried nothing: %v/%v", a, b)
	}
	ratio := a / b
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("round-robin split %v/%v is too skewed", a, b)
	}
}

func TestPathDeathReinjection(t *testing.T) {
	var emus []*chaos.Path
	// Kill path 1 shortly after the transfer starts.
	time.AfterFunc(50*time.Millisecond, func() {
		emus[1].Update(func(c *chaos.PathConfig) { c.LossRate = 1 })
	})
	tx, _ := transfer(t, 400<<10, 2, func(i int) (net.PacketConn, net.PacketConn, net.Addr) {
		// ~4 Mb/s per path so the 400 KB transfer spans ~400 ms.
		s, r, ra := pipePair(t, time.Millisecond, 0, 4e6, 500+int64(i))
		emus = append(emus, s.(*chaos.Path))
		return s, r, ra
	}, Config{}, 60*time.Second)
	if st := tx.Stats(); st.Reinjects == 0 {
		t.Error("path death should have triggered data reinjection")
	}
}

func TestLargeTransferExceedsSendBuffer(t *testing.T) {
	// Regression: a single Write larger than the send buffer (the
	// window plus one run) must pump the network before blocking on
	// backpressure, or the transfer deadlocks before the first packet.
	_, rx := transfer(t, 2<<20, 2, func(i int) (net.PacketConn, net.PacketConn, net.Addr) {
		return pipePair(t, time.Millisecond, 0, 40e6, 800+int64(i))
	}, Config{}, 120*time.Second)
	if _, _, ovf := rx.Stats(); ovf > 0 {
		t.Errorf("receive buffer overflowed %d times despite flow control", ovf)
	}
}

func TestSenderWriteAfterClose(t *testing.T) {
	a, _ := net.ListenPacket("udp", "127.0.0.1:0")
	defer a.Close()
	s := NewSender(1, []net.PacketConn{a}, []net.Addr{a.LocalAddr()}, Config{})
	s.Close()
	if _, err := s.Write([]byte("x")); err == nil {
		t.Error("write after close should fail")
	}
}

// EOF is the end-of-stream segment read in order, not its arrival: on
// paths of unequal delay it overtakes data, and Read must then wait for
// the gap to fill.
func TestReceiverEOFOnlyAfterAllData(t *testing.T) {
	cs := [2]*memConn{newMemConn("rcv0"), newMemConn("rcv1")}
	t.Cleanup(func() { cs[0].Close(); cs[1].Close() })
	rx := NewReceiver(9, []net.PacketConn{cs[0], cs[1]}, 64)
	defer rx.Close()
	type result struct {
		got string
		err error
	}
	done := make(chan result, 1)
	go func() {
		b, err := io.ReadAll(rx)
		done <- result{string(b), err}
	}()
	stillBlocked := func(why string) {
		t.Helper()
		select {
		case r := <-done:
			t.Fatalf("Read returned %q, %v %s", r.got, r.err, why)
		case <-time.After(50 * time.Millisecond):
		}
	}
	stillBlocked("with no data and no end of stream")

	// The fast path delivers the end of the stream (data sequence 2) and
	// then "b"; the slow one is still carrying "a".
	cs[1].deliver(segFrame(9, 0, 2, flagFin, ""))
	if acks := waitWrites(t, cs[1], typeAck, 1); acks[0].DataSeq != 0 {
		t.Fatalf("data ack after the early end-of-stream segment = %d, want 0", acks[0].DataSeq)
	}
	stillBlocked("on the end-of-stream segment alone, both data segments missing")
	cs[1].deliver(segFrame(9, 1, 1, 0, "b"))
	waitWrites(t, cs[1], typeAck, 2)
	stillBlocked("with data sequence 0 still missing")
	cs[0].deliver(segFrame(9, 0, 0, 0, "a"))
	select {
	case r := <-done:
		if r.got != "ab" || r.err != nil {
			t.Errorf("stream read as %q, %v, want \"ab\" and a clean EOF", r.got, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no EOF after the gap filled")
	}
	if got := received(rx); got != 3 {
		t.Errorf("received %d segments, want the 2 data segments and the end-of-stream one", got)
	}
}

func TestFlowControlSharedBuffer(t *testing.T) {
	// A tiny receive buffer with a reader that drains slowly: the sender
	// must respect the advertised window rather than overflow.
	sA, rA, raA := pipePair(t, time.Millisecond, 0, 0, 700)
	const connID = 13
	rx := NewReceiver(connID, []net.PacketConn{rA}, 16)
	tx := NewSender(connID, []net.PacketConn{sA}, []net.Addr{raA}, Config{})
	data := bytes.Repeat([]byte("flowctl!"), 64<<10/8) // 64 KB
	go func() {
		tx.Write(data) //nolint:errcheck
		tx.Close()
	}()
	got := 0
	buf := make([]byte, 4096)
	deadline := time.Now().Add(60 * time.Second)
	for got < len(data) {
		if time.Now().After(deadline) {
			t.Fatalf("slow-reader transfer stalled at %d/%d", got, len(data))
		}
		n, err := rx.Read(buf)
		got += n
		if err == io.EOF {
			break
		}
		time.Sleep(time.Millisecond) // slow application
	}
	if got != len(data) {
		t.Errorf("got %d bytes, want %d", got, len(data))
	}
}
