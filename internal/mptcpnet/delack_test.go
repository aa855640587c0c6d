package mptcpnet

// The shell's half of delayed acknowledgments: when to acknowledge is the
// core's decision (internal/proto's TestDelayedAck* scripts); here are the
// timer, the echo of a held segment and their teardown.

import (
	"io"
	"net"
	"testing"
	"time"

	"mptcp/internal/chaos"
	"mptcp/internal/chaos/leak"
)

// A clean bulk transfer is acknowledged about once per two segments, and
// the coalescing manufactures no retransmission.
func TestDelayedAckHalvesAckTraffic(t *testing.T) {
	tx, rx, _ := memPipe(t, 1, Config{}, 256)
	const segs = 2000
	go func() {
		tx.Write(make([]byte, segs*MaxPayload)) //nolint:errcheck
		tx.Close()
	}()
	if got := drainEOF(t, rx); got != segs*MaxPayload {
		t.Fatalf("received %d bytes, want %d", got, segs*MaxPayload)
	}
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := tx.Stats()
	if ratio := float64(st.AcksRecvd) / segs; ratio > 0.6 {
		t.Errorf("%d ACKs for %d segments (%.2f per segment), want at most 0.6", st.AcksRecvd, segs, ratio)
	}
	if st.SegsRetx != 0 {
		t.Errorf("loss-free pipe saw %d retransmissions, want 0", st.SegsRetx)
	}
}

// The last segment of an odd-length transfer is not left waiting: the
// end-of-stream segment behind it is acknowledged at once, covering it,
// and Wait returns long before any retransmission timer could have fired.
func TestDelayedAckTailIsNotHeld(t *testing.T) {
	tx, rx, snds := memPipe(t, 1, Config{}, 256)
	if _, err := tx.Write(make([]byte, 3*MaxPayload)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	tx.Close()
	if got := drainEOF(t, rx); got != 3*MaxPayload {
		t.Fatalf("received %d bytes, want %d", got, 3*MaxPayload)
	}
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= time.Duration(tx.core.MinRTO()) {
		t.Errorf("Wait returned %v after Close, want well under the %v minimum RTO", d, time.Duration(tx.core.MinRTO()))
	}
	if st := tx.Stats(); st.SegsRetx != 0 {
		t.Errorf("%d retransmissions of a 3-segment transfer, want 0", st.SegsRetx)
	}
	if ends := endWrites(snds[0]); len(ends) != 1 || ends[0].DataSeq != 3 || ends[0].Plen != 0 {
		t.Errorf("end-of-stream transmissions %+v, want one empty segment at data sequence 3, acknowledged first time", ends)
	}
}

// When segments arrive further apart than the ACK delay, every ACK is the
// timer's. It echoes the held segment's timestamp advanced by the hold
// time, so the sender's estimate stays the path's round trip: within 10 %
// of the configured one, and within half an ACK delay of what the same
// path measures when segments travel in pairs and no ACK waits.
func TestDelayedAckHoldTimeNotInRTT(t *testing.T) {
	const oneWay, rtt = 10 * time.Millisecond, 20 * time.Millisecond
	// Go's timers fire late, never early, and more so on a busy machine:
	// that inflates every sample of both runs, while an uncounted hold
	// adds its 1 ms (and its own lateness) to each sample of one. Three
	// attempts keep the first from being misread as the second.
	var lone, paired time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		paired, lone = pacedSRTT(t, oneWay, 2), pacedSRTT(t, oneWay, 1)
		if lone <= rtt*110/100 && lone-paired < ackDelay/2 {
			break
		}
	}
	if lone < rtt*90/100 || lone > rtt*110/100 {
		t.Errorf("srtt = %v with every ACK timer-fired, want within 10%% of the path's %v round trip", lone, rtt)
	}
	t.Logf("srtt %v with every ACK timer-fired, %v with none", lone, paired)
	if d := lone - paired; d >= ackDelay/2 {
		t.Errorf("srtt = %v with every ACK timer-fired, %v with none: the %v difference is the hold time", lone, paired, d)
	}
}

// pacedSRTT sends 24 bursts of the given number of segments over a path
// with the given one-way delay in each direction, each burst alone in
// flight, and returns the sender's smoothed RTT. A burst of one is
// acknowledged by the delay timer, a burst of two at once.
func pacedSRTT(t *testing.T, oneWay time.Duration, burst int) time.Duration {
	t.Helper()
	const bursts = 24
	snd, rcv := newMemConn("snd"), newMemConn("rcv")
	wire(snd, rcv)
	fwd := chaos.New(snd, chaos.PathConfig{Delay: oneWay}, 1)
	rev := chaos.New(rcv, chaos.PathConfig{Delay: oneWay}, 2)
	defer fwd.Close()
	defer rev.Close()
	rx := NewReceiver(7, []net.PacketConn{rev}, 256)
	defer rx.Close()
	tx := NewSender(7, []net.PacketConn{fwd}, []net.Addr{memAddr("rcv")}, Config{})
	go io.Copy(io.Discard, rx) //nolint:errcheck // ends with the stream, or with rx.Close
	for i := 0; i < bursts; i++ {
		if _, err := tx.Write(make([]byte, burst*MaxPayload)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2*oneWay + 5*ackDelay)
	}
	tx.Close()
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := tx.Stats(); st.SegsRetx != 0 || st.AcksRecvd < bursts {
		t.Fatalf("%d ACKs and %d retransmissions for %d bursts, want an ACK for each and no loss", st.AcksRecvd, st.SegsRetx, bursts)
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return time.Duration(tx.core.SRTT(0))
}

// Close stops the delay timers: nothing is acknowledged afterwards, not
// even by an expiry already under way, and no timer goroutine outlives
// the receiver.
func TestDelayedAckTimerStoppedByClose(t *testing.T) {
	leak.Check(t, 5*time.Second)
	c := newMemConn("rcv")
	rx := NewReceiver(42, []net.PacketConn{c}, 16)
	f := make([]byte, headerSize+1)
	h := header{Type: typeData, ConnID: 42, Plen: 1, Echo: 1}
	h.marshal(f)
	sealFrame(f)
	c.deliver(f) // a lone segment: owed, timer armed
	deadline := time.Now().Add(5 * time.Second)
	for received(rx) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the segment was never received")
		}
		time.Sleep(100 * time.Microsecond)
	}
	rx.Close()
	c.Close()                             // ends readLoop
	before := len(c.typedWrites(typeAck)) // 1 if the timer beat Close to it
	rx.ackOutOfBand(0, false)             // an expiry that lost the race with Close
	time.Sleep(5 * ackDelay)
	if after := len(c.typedWrites(typeAck)); after != before {
		t.Errorf("%d ACKs written after Close, want none", after-before)
	}
	rx.mu.Lock()
	defer rx.mu.Unlock()
	if rx.held[0].tm.on {
		t.Error("the delay timer is still armed after Close")
	}
}
