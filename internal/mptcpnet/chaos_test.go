package mptcpnet

import (
	"crypto/sha256"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"mptcp/internal/chaos"
	"mptcp/internal/chaos/leak"
	"mptcp/internal/sched"
)

// TestTransferSurvivesBitCorruption runs a transfer through a chaos.Path
// that flips bits in 5% of data-direction datagrams. The wire checksum
// must turn every mangled frame into a counted drop — the transfer
// completes byte-exact, the receiver's Corrupted counter advances, and
// nothing leaks.
func TestTransferSurvivesBitCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second lossy transfer")
	}
	leak.Check(t, 5*time.Second)
	corrupting := func(i int) (net.PacketConn, net.PacketConn, net.Addr) {
		a, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close(); b.Close() })
		s := chaos.New(a, chaos.PathConfig{Delay: time.Millisecond, CorruptRate: 0.05}, int64(6000+i))
		r := chaos.New(b, chaos.PathConfig{Delay: time.Millisecond}, int64(6100+i))
		return s, r, b.LocalAddr()
	}
	_, rx := transfer(t, 128<<10, 2, corrupting, Config{}, 60*time.Second)
	if rx.Corrupted() == 0 {
		t.Error("no corrupted frames counted despite a 5% corruption rate")
	}
}

// TestChaosRunsThroughRelays puts faults on the run path. Every other
// chaos test wraps the endpoints' sockets in chaos.Path, which takes one
// datagram per call; here both endpoints keep raw *net.UDPConn sockets,
// so the sender's data and the receiver's ACKs leave as GSO runs, and a
// chaos.Relay per path loses, reorders, duplicates and corrupts the data
// direction between them.
func TestChaosRunsThroughRelays(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second lossy transfer")
	}
	leak.Check(t, 5*time.Second)
	faults := chaos.PathConfig{
		Delay: time.Millisecond, LossRate: 0.02, ReorderRate: 0.05, ReorderDelay: 3 * time.Millisecond,
		DupRate: 0.02, CorruptRate: 0.02,
	}
	relayed := func(i int) (net.PacketConn, net.PacketConn, net.Addr) {
		s, r := rawUDP(t), rawUDP(t)
		skipWithoutRuns(t, s)
		relay, err := chaos.NewRelay(r.LocalAddr(), faults, int64(8000+i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { relay.Close() })
		return s, r, relay.Addr()
	}
	tx, rx := transfer(t, 512<<10, 2, relayed, Config{}, 60*time.Second)
	defer rx.Close()
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, sf := range tx.subs {
		if !sf.sock.gso.Load() || !rx.socks[i].gso.Load() || !sf.sock.gro || !rx.socks[i].gro {
			t.Errorf("subflow %d left the run path", i)
		}
	}
	if st := tx.Stats(); st.SegsRetx == 0 || rx.Corrupted() == 0 {
		t.Errorf("%d retransmissions, %d corrupted frames: the faults were not exercised", st.SegsRetx, rx.Corrupted())
	}
}

// TestFrameRecyclingSafeUnderChaos is the ownership rule's stress test:
// pooled frames are reused as fast as the paths give them back, so a
// frame freed while something could still read it (a queued transmission
// aliasing a payload, a reorder slot released twice) shows up as a wrong
// byte in the stream — or, under -race, as a report. Loss, reordering and
// duplication on every path, a 16-segment shared receive buffer, and the
// two schedulers that retransmit the most: redundant (every segment on
// every subflow) and minRTT with both §6 countermeasures.
func TestFrameRecyclingSafeUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second lossy transfer")
	}
	for si, spec := range []string{"redundant", "minrtt+otr+pen"} {
		si, spec := si, spec
		t.Run(spec, func(t *testing.T) {
			leak.Check(t, 5*time.Second) // registered first: runs after the paths are closed
			sch, opts, err := sched.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			var paths []*chaos.Path
			var sConns, rConns []net.PacketConn
			var remotes []net.Addr
			for i := 0; i < 2; i++ {
				s, r, ra := pipePair(t, time.Millisecond, 0.05, 0, int64(7000+100*si+2*i))
				for _, c := range []net.PacketConn{s, r} {
					p := c.(*chaos.Path)
					p.Update(func(c *chaos.PathConfig) {
						c.ReorderRate, c.ReorderDelay, c.DupRate = 0.1, 3*time.Millisecond, 0.05
					})
					paths = append(paths, p)
				}
				sConns, rConns, remotes = append(sConns, s), append(rConns, r), append(remotes, ra)
			}
			t.Cleanup(func() {
				for _, p := range paths {
					p.Close()
				}
				// A delivery already firing when Close ran finishes on its own.
				deadline := time.Now().Add(3 * time.Second)
				for _, p := range paths {
					for p.Pending() != 0 && time.Now().Before(deadline) {
						time.Sleep(5 * time.Millisecond)
					}
					if n := p.Pending(); n != 0 {
						t.Errorf("chaos path still holds %d scheduled deliveries after close: leaked timers", n)
					}
				}
			})

			data := make([]byte, 512<<10)
			rand.New(rand.NewSource(int64(si))).Read(data)
			rx := NewReceiver(11, rConns, 16)
			defer rx.Close()
			tx := NewSender(11, sConns, remotes, Config{Sched: sch, SchedOpts: opts, MinRTO: 20 * time.Millisecond})
			werr := make(chan error, 1)
			go func() {
				_, err := tx.Write(data)
				tx.Close()
				werr <- err
			}()
			got := sha256.New()
			n, err := io.Copy(got, rx)
			if err != nil || n != int64(len(data)) {
				t.Fatalf("received %d of %d bytes: %v", n, len(data), err)
			}
			if err := <-werr; err != nil {
				t.Fatalf("write: %v", err)
			}
			if err := tx.Wait(60 * time.Second); err != nil {
				t.Fatal(err)
			}
			if want := sha256.Sum256(data); string(got.Sum(nil)) != string(want[:]) {
				t.Fatal("received stream differs from the sent one: a frame was reused while still owned")
			}
			if st := tx.Stats(); st.SegsRetx == 0 && st.Reinjects == 0 && spec != "redundant" {
				t.Error("no retransmission at 5% loss: the fault model was not exercised")
			}
		})
	}
}
