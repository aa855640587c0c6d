package mptcpnet

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestSteadyStateSegmentPathAllocationFree pins the per-segment data path
// — Write, transmit, writeLoop, the receiver's readLoop/onData/ACK, the
// sender's ACK handling and RTO re-arm, Read — at zero steady-state heap
// allocations: pooled frames, sequence rings and one re-armed timer per
// subflow. It runs over the in-memory pipe with preallocated buffers, so
// whatever is counted is the protocol's own. The bounds leave room for
// the runtime (a GC cycle empties the frame pool, goroutine bookkeeping)
// but not for one object per segment: the map-and-make path this
// replaced cost 11 objects and 9.3 KB per segment here.
func TestSteadyStateSegmentPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and randomly drops sync.Pool puts")
	}
	snd, rcv := newMemConn("snd"), newMemConn("rcv")
	wire(snd, rcv)
	snd.preallocate(2048)
	rcv.preallocate(2048)
	defer snd.Close()
	defer rcv.Close()
	segmentPathAllocs(t, snd, rcv, memAddr("rcv"), 1.0)
}

// TestSteadyStateSegmentPathAllocationFreeOverUDP is the same pin over a
// real loopback *net.UDPConn pair, where the run path carries every
// datagram: the addresses net.(*UDPConn).ReadFrom allocated (≈ 3.1
// objects per segment) must not come back.
func TestSteadyStateSegmentPathAllocationFreeOverUDP(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and randomly drops sync.Pool puts")
	}
	snd, rcv := rawUDP(t), rawUDP(t)
	skipWithoutRuns(t, snd)
	segmentPathAllocs(t, snd, rcv, rcv.LocalAddr(), 0.1)
}

// segmentPathAllocs streams 20 000 segments from snd to rcv after a
// warm-up, fails above maxAllocs heap objects or 256 B per segment, and
// then requires a clean end of stream with no retransmission.
func segmentPathAllocs(t *testing.T, snd, rcv net.PacketConn, remote net.Addr, maxAllocs float64) {
	t.Helper()
	const (
		warmup   = 4_000
		measured = 20_000
		perWrite = 64 // segments per Write call
	)
	rx := NewReceiver(7, []net.PacketConn{rcv}, 256)
	defer rx.Close()
	tx := NewSender(7, []net.PacketConn{snd}, []net.Addr{remote}, Config{})

	chunk := make([]byte, perWrite*MaxPayload)
	rbuf := make([]byte, 64<<10)
	// stream pushes segs segments through and returns once every byte has
	// been read back.
	stream := func(segs int) {
		werr := make(chan error, 1)
		go func() {
			for i := 0; i < segs/perWrite; i++ {
				if _, err := tx.Write(chunk); err != nil {
					werr <- err
					return
				}
			}
			werr <- nil
		}()
		for want := segs / perWrite * len(chunk); want > 0; {
			n, err := rx.Read(rbuf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			want -= n
		}
		if err := <-werr; err != nil {
			t.Fatalf("write: %v", err)
		}
	}

	stream(warmup) // rings grown, pool filled, timer created
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stream(measured)
	runtime.ReadMemStats(&m1)

	segs := float64(measured / perWrite * perWrite)
	allocs := float64(m1.Mallocs-m0.Mallocs) / segs
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / segs
	t.Logf("%.3f allocs and %.1f B per segment over %.0f segments", allocs, bytes, segs)
	if allocs > maxAllocs {
		t.Errorf("%.2f heap allocations per segment, want <= %.1f", allocs, maxAllocs)
	}
	if bytes > 256 {
		t.Errorf("%.0f heap bytes per segment, want <= 256", bytes)
	}

	tx.Close()
	if _, err := rx.Read(rbuf); err != io.EOF {
		t.Errorf("read after close: %v, want EOF", err)
	}
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Error(err)
	}
	if st := tx.Stats(); st.SegsRetx != 0 {
		t.Errorf("loss-free pipe saw %d retransmissions, want 0", st.SegsRetx)
	}
}

// The ACKs sent from outside readLoop — Read's window update, the delay
// timer's — marshal into a pooled frame: no header buffer, no slices.
func TestOutOfBandAckAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and randomly drops sync.Pool puts")
	}
	snd, rcv := newMemConn("snd"), newMemConn("rcv")
	wire(snd, rcv)
	rcv.preallocate(8) // once those are in flight the fake drops, allocating nothing
	defer snd.Close()
	defer rcv.Close()
	rx := NewReceiver(7, []net.PacketConn{rcv}, 16)
	defer rx.Close()
	f := make([]byte, headerSize)
	h := header{Type: typeProbe, ConnID: 7}
	h.marshal(f)
	sealFrame(f)
	rcv.deliver(f) // tells the receiver where subflow 0's peer is
	for deadline := time.Now().Add(5 * time.Second); len(snd.inbox) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the probe was never answered")
		}
	}
	if n := testing.AllocsPerRun(1000, func() { rx.ackOutOfBand(0, true) }); n != 0 {
		t.Errorf("%.1f allocations per window update, want 0", n)
	}
}
