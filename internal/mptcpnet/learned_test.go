package mptcpnet

import (
	"net"
	"testing"
	"time"

	"mptcp/internal/chaos/leak"
	"mptcp/internal/sched"
)

// TestLearnedSchedulerOverSockets: the frozen bandit policy must
// drive a real two-path socket transfer to completion — first over
// plainly heterogeneous paths, then under a constrained shared receive
// buffer over a fast and a slow, rate-limited path. The second leg is
// the regime the policy's wait arm and pressure feature were trained
// for: flow control binds, the scheduler is consulted under pressure,
// and its learned "send nothing now" decision must never park the
// connection (the liveness guards in sched/learned.go are what this
// test would catch regressing). leak.Check pins that no goroutine
// outlives the transfer.
func TestLearnedSchedulerOverSockets(t *testing.T) {
	leak.Check(t, 5*time.Second)

	t.Run("heterogeneous", func(t *testing.T) {
		tx, rx := transfer(t, 100<<10, 2, func(i int) (net.PacketConn, net.PacketConn, net.Addr) {
			return pipePair(t, time.Duration(1+30*i)*time.Millisecond, 0, 10e6, int64(7000+i))
		}, Config{Sched: sched.MustNew("bandit")}, 60*time.Second)
		if st := tx.Stats(); st.SegsSent == 0 {
			t.Error("sender reported no segments")
		}
		if rx.SubflowReceived(0) == 0 {
			t.Error("the fast path delivered nothing")
		}
	})

	t.Run("blocking-buffer", func(t *testing.T) {
		var sConns, rConns []net.PacketConn
		var remotes []net.Addr
		for i := 0; i < 2; i++ {
			delay, rate := time.Millisecond, 20e6
			if i == 1 {
				delay, rate = 60*time.Millisecond, 1e6
			}
			s, r, ra := pipePair(t, delay, 0, rate, int64(7100+i))
			sConns = append(sConns, s)
			rConns = append(rConns, r)
			remotes = append(remotes, ra)
		}
		const connID = 73
		rx := NewReceiver(connID, rConns, 64)
		defer rx.Close()
		tx := NewSender(connID, sConns, remotes, Config{Sched: sched.MustNew("bandit")})
		data := make([]byte, 200<<10)
		for i := range data {
			data[i] = byte(i)
		}
		go func() {
			tx.Write(data) //nolint:errcheck
			tx.Close()
		}()
		buf := make([]byte, 64<<10)
		got := 0
		deadline := time.Now().Add(60 * time.Second)
		for got < len(data) {
			if time.Now().After(deadline) {
				t.Fatalf("transfer stalled at %d/%d — learned wait parked the connection?", got, len(data))
			}
			n, err := rx.Read(buf)
			got += n
			if err != nil {
				break
			}
		}
		if got != len(data) {
			t.Fatalf("got %d bytes, want %d", got, len(data))
		}
	})
}
