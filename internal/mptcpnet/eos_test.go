package mptcpnet

// The end of the stream is the last element of the data sequence space:
// one empty data segment carrying flagFin. Nothing of its own delivers it,
// so these tests put it through what delivers everything else — the RTO,
// reinjection, reassembly, flow control's accounting, the all-paths-dead
// bound — over the deterministic in-memory PacketConn.

import (
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mptcp/internal/chaos/leak"
)

// isEnd reports whether datagram b is a transmission of the end-of-stream
// segment.
func isEnd(b []byte) bool {
	var h header
	return h.unmarshal(b) == nil && h.Type == typeData && h.Flags&flagFin != 0
}

// endWrites returns c's recorded transmissions of the end-of-stream
// segment, in call order.
func endWrites(c *memConn) []header {
	var hs []header
	for _, h := range c.typedWrites(typeData) {
		if h.Flags&flagFin != 0 {
			hs = append(hs, h)
		}
	}
	return hs
}

// The end-of-stream segment lost on its first transmission, behind data
// that is all acknowledged: no later segment will ever SACK around it, so
// the ordinary retransmission timer is what repairs it.
func TestEndOfStreamLostIsRepairedByRTO(t *testing.T) {
	tx, rx, snds := memPipe(t, 1, Config{MinRTO: 20 * time.Millisecond}, 256)
	var ends atomic.Int64
	snds[0].drop = func(b []byte) bool { return isEnd(b) && ends.Add(1) == 1 }
	if _, err := tx.Write(make([]byte, 4*MaxPayload)); err != nil {
		t.Fatal(err)
	}
	tx.Close()
	if got := drainEOF(t, rx); got != 4*MaxPayload {
		t.Fatalf("received %d bytes before EOF, want %d", got, 4*MaxPayload)
	}
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	tx.mu.Lock()
	rtos := tx.core.Stats(0).RTOs
	tx.mu.Unlock()
	if st := tx.Stats(); rtos == 0 || st.SegsRetx == 0 || ends.Load() < 2 {
		t.Errorf("%d RTOs, %d retransmissions, %d end-of-stream transmissions: want the lost one repaired by a timeout", rtos, st.SegsRetx, ends.Load())
	}
}

// The subflow that carries the end-of-stream segment dies for good with
// it: its timeout reinjects the segment onto the other subflow, still
// flagged, and the stream ends there.
func TestEndOfStreamReinjectedWhenItsSubflowDies(t *testing.T) {
	tx, rx, snds := memPipe(t, 2, Config{MinRTO: 20 * time.Millisecond}, 256)
	var dead atomic.Int32 // 1 + the subflow that carried the end of stream first
	for i, c := range snds {
		c.drop = func(b []byte) bool {
			if isEnd(b) {
				dead.CompareAndSwap(0, int32(i+1))
			}
			return dead.Load() == int32(i+1)
		}
	}
	const segs = 64 // enough for both subflows to have measured their paths
	if _, err := tx.Write(make([]byte, segs*MaxPayload)); err != nil {
		t.Fatal(err)
	}
	tx.Close()
	if got := drainEOF(t, rx); got != segs*MaxPayload {
		t.Fatalf("received %d bytes before EOF, want %d", got, segs*MaxPayload)
	}
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := tx.Stats(); st.Reinjects == 0 {
		t.Error("the stream ended without a reinjection")
	}
	if live := snds[2-dead.Load()]; len(endWrites(live)) == 0 {
		t.Errorf("subflow %d died with the end-of-stream segment and the other never carried it", dead.Load()-1)
	}
}

// Close on a stream nobody wrote to: the end-of-stream segment is data
// sequence 0, the first Read is the EOF, and the sender completes.
func TestEndOfStreamOnEmptyStream(t *testing.T) {
	tx, rx, snds := memPipe(t, 1, Config{}, 256)
	tx.Close()
	if n, err := rx.Read(make([]byte, 16)); n != 0 || err != io.EOF {
		t.Fatalf("Read on an empty stream = %d, %v, want 0, EOF", n, err)
	}
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := tx.Stats(); st.SegsSent != 1 || st.SegsRetx != 0 || received(rx) != 1 {
		t.Errorf("sent %d segments (%d retransmitted), receiver counts %d: want the end-of-stream segment alone, counted by both",
			st.SegsSent, st.SegsRetx, received(rx))
	}
	if ends := endWrites(snds[0]); len(ends) != 1 || ends[0].DataSeq != 0 {
		t.Errorf("end-of-stream transmissions %+v, want one at data sequence 0", ends)
	}
}

// Read never returns 0, nil. When p fills exactly at the last byte, the
// empty end-of-stream segment is the only readable frame left: the next
// Read consumes it — the receive window is whole again — and that is the
// EOF.
func TestReadConsumesEndOfStreamSegmentAsEOF(t *testing.T) {
	const bufSegments = 8
	tx, rx, _ := memPipe(t, 1, Config{}, bufSegments)
	if _, err := tx.Write([]byte("ab")); err != nil {
		t.Fatal(err)
	}
	tx.Close()
	if err := tx.Wait(10 * time.Second); err != nil { // both segments delivered, neither read
		t.Fatal(err)
	}
	p := make([]byte, 2)
	if n, err := rx.Read(p); n != 2 || err != nil || string(p) != "ab" {
		t.Fatalf("Read = %d, %v (%q), want the 2 bytes and no error", n, err, p[:n])
	}
	for i := 0; i < 2; i++ { // the EOF, and it stays
		if n, err := rx.Read(p); n != 0 || err != io.EOF {
			t.Fatalf("Read %d after the last byte = %d, %v, want 0, EOF", i, n, err)
		}
	}
	rx.mu.Lock()
	defer rx.mu.Unlock()
	if w := rx.core.Window(); w != bufSegments || rx.core.Readable() != 0 {
		t.Errorf("window %d with %d segments readable after EOF, want the whole %d-segment buffer back", w, rx.core.Readable(), bufSegments)
	}
}

// The peer vanishes once the data is through: the end-of-stream segment
// has only the retransmission timer, and the sender gives up by the one
// rule there is — every path dead — with one error and nothing left
// running.
func TestEndOfStreamPeerGoneGivesUpOnce(t *testing.T) {
	leak.Check(t, 5*time.Second) // registered first: runs after memPipe's cleanup closed the sockets
	tx, rx, snds := memPipe(t, 1, Config{MinRTO: time.Millisecond}, 256)
	var gone atomic.Bool
	snds[0].drop = func([]byte) bool { return gone.Load() }
	if _, err := tx.Write(make([]byte, 4*MaxPayload)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(rx, make([]byte, 4*MaxPayload)); err != nil { // the path is measured
		t.Fatal(err)
	}
	gone.Store(true)
	tx.Close()
	select {
	case <-tx.done:
	case <-time.After(30 * time.Second):
		t.Fatal("the sender neither completed nor gave up")
	}
	err := tx.Wait(time.Second)
	if err == nil || !strings.Contains(err.Error(), "every subflow timed out") {
		t.Fatalf("Wait = %v, want the all-paths-dead error", err)
	}
	if again := tx.Wait(time.Second); again != err {
		t.Errorf("second Wait = %v, want the same one error", again)
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.completed || tx.persist.on || tx.subs[0].rto.on {
		t.Errorf("after giving up: completed=%t persist armed=%t rto armed=%t, want none", tx.completed, tx.persist.on, tx.subs[0].rto.on)
	}
}
