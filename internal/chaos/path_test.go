package chaos

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sink is a minimal net.PacketConn that records every delivered frame;
// ReadFrom blocks until Close.
type sink struct {
	mu     sync.Mutex
	frames [][]byte
	done   chan struct{}
	once   sync.Once
}

func newSink() *sink { return &sink{done: make(chan struct{})} }

func (s *sink) WriteTo(p []byte, _ net.Addr) (int, error) {
	b := append([]byte(nil), p...)
	s.mu.Lock()
	s.frames = append(s.frames, b)
	s.mu.Unlock()
	return len(p), nil
}

func (s *sink) got() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.frames...)
}

func (s *sink) ReadFrom(p []byte) (int, net.Addr, error) {
	<-s.done
	return 0, nil, net.ErrClosed
}
func (s *sink) Close() error {
	s.once.Do(func() { close(s.done) })
	return nil
}
func (s *sink) LocalAddr() net.Addr              { return sinkAddr{} }
func (s *sink) SetDeadline(time.Time) error      { return nil }
func (s *sink) SetReadDeadline(time.Time) error  { return nil }
func (s *sink) SetWriteDeadline(time.Time) error { return nil }

type sinkAddr struct{}

func (sinkAddr) Network() string { return "sink" }
func (sinkAddr) String() string  { return "sink" }

// write pushes n distinct one-byte-tagged frames through p.
func write(t *testing.T, p *Path, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := p.WriteTo([]byte{byte(i), byte(i >> 8), 0xAA, 0x55}, sinkAddr{}); err != nil {
			t.Fatalf("WriteTo %d: %v", i, err)
		}
	}
}

// TestPathDeterministicBySeed: identical seeds and write sequences make
// identical fault decisions — the property that lets a failing run be
// replayed from its printed seed.
func TestPathDeterministicBySeed(t *testing.T) {
	cfg := PathConfig{LossRate: 0.4, DupRate: 0.2, CorruptRate: 0.3}
	run := func(seed int64) [][]byte {
		s := newSink()
		p := New(s, cfg, seed)
		write(t, p, 500)
		p.Close()
		return s.got()
	}
	a, b := run(77), run(77)
	if len(a) != len(b) {
		t.Fatalf("same seed delivered %d vs %d frames", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("same seed diverged at frame %d: %x vs %x", i, a[i], b[i])
		}
	}
	c := run(78)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if !bytes.Equal(a[i], c[i]) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical fault sequences")
		}
	}
}

// TestPathKillHeal: a killed path eats everything (counted as drops); a
// healed one delivers again.
func TestPathKillHeal(t *testing.T) {
	s := newSink()
	p := New(s, PathConfig{}, 1)
	defer p.Close()
	p.SetDown(true)
	write(t, p, 10)
	if n := len(s.got()); n != 0 {
		t.Fatalf("killed path delivered %d frames", n)
	}
	if st := p.Stats(); st.Dropped != 10 {
		t.Errorf("killed path counted %d drops, want 10", st.Dropped)
	}
	p.SetDown(false)
	write(t, p, 5)
	if n := len(s.got()); n != 5 {
		t.Errorf("healed path delivered %d frames, want 5", n)
	}
}

// TestPathCorruption: CorruptRate 1 mangles every frame, and the mangled
// copy differs from the original (the caller's buffer is untouched).
func TestPathCorruption(t *testing.T) {
	s := newSink()
	p := New(s, PathConfig{CorruptRate: 1}, 2)
	defer p.Close()
	orig := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	sent := append([]byte(nil), orig...)
	p.WriteTo(sent, sinkAddr{}) //nolint:errcheck
	frames := s.got()
	if len(frames) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(frames))
	}
	if bytes.Equal(frames[0], orig) {
		t.Error("corrupted frame identical to original")
	}
	if !bytes.Equal(sent, orig) {
		t.Error("corruption mutated the caller's buffer")
	}
	if st := p.Stats(); st.Corrupted != 1 {
		t.Errorf("Corrupted = %d, want 1", st.Corrupted)
	}
}

// TestPathDuplication: DupRate 1 delivers every frame twice.
func TestPathDuplication(t *testing.T) {
	s := newSink()
	p := New(s, PathConfig{DupRate: 1}, 3)
	defer p.Close()
	write(t, p, 7)
	if n := len(s.got()); n != 14 {
		t.Errorf("delivered %d frames, want 14 (every one duplicated)", n)
	}
	if st := p.Stats(); st.Duplicated != 7 || st.Sent != 14 {
		t.Errorf("stats = %+v, want Duplicated 7 Sent 14", st)
	}
}

// TestPathReorderHoldsBack: a frame tagged for reordering is overtaken by
// a later untagged one.
func TestPathReorderHoldsBack(t *testing.T) {
	s := newSink()
	p := New(s, PathConfig{ReorderRate: 1, ReorderDelay: 40 * time.Millisecond}, 4)
	defer p.Close()
	p.WriteTo([]byte{1}, sinkAddr{}) //nolint:errcheck — held back 40ms
	p.Update(func(c *PathConfig) { c.ReorderRate = 0 })
	p.WriteTo([]byte{2}, sinkAddr{}) //nolint:errcheck — direct
	deadline := time.Now().Add(2 * time.Second)
	for len(s.got()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d frames arrived", len(s.got()))
		}
		time.Sleep(time.Millisecond)
	}
	frames := s.got()
	if frames[0][0] != 2 || frames[1][0] != 1 {
		t.Errorf("delivery order %v, want the held-back frame second", frames)
	}
	if st := p.Stats(); st.Reordered != 1 {
		t.Errorf("Reordered = %d, want 1", st.Reordered)
	}
}

// TestPathDeliversInDueOrder writes 2 000 numbered datagrams in bursts of
// 20, as a sender's window opens, and counts arrivals that come after a
// higher number. A fixed delay and the benchmark's WiFi path (delay,
// loss, rate limit) ask for no reordering, so they must show none; with
// Jitter, datagrams must overtake one another.
func TestPathDeliversInDueOrder(t *testing.T) {
	const n, burst = 2000, 20
	for _, tc := range []struct {
		name    string
		cfg     PathConfig
		reorder bool
	}{
		{"delay", PathConfig{Delay: 5 * time.Millisecond}, false},
		{"wifi", PathConfig{Delay: 5 * time.Millisecond, LossRate: 0.01, RateBps: 16e6}, false},
		{"jitter", PathConfig{Delay: 5 * time.Millisecond, Jitter: 5 * time.Millisecond}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSink()
			p := New(s, tc.cfg, 9)
			defer p.Close()
			msg := make([]byte, 64)
			for i := 0; i < n; i++ {
				binary.BigEndian.PutUint32(msg, uint32(i))
				p.WriteTo(msg, sinkAddr{}) //nolint:errcheck
				if i%burst == burst-1 {
					time.Sleep(time.Millisecond)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for p.Pending() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d deliveries still pending", p.Pending())
				}
				time.Sleep(time.Millisecond)
			}
			frames := s.got()
			if want := p.Stats().Sent; int64(len(frames)) != want {
				t.Fatalf("delivered %d frames, want %d", len(frames), want)
			}
			late, top := 0, -1
			for _, f := range frames {
				if k := int(binary.BigEndian.Uint32(f)); k < top {
					late++
				} else {
					top = k
				}
			}
			t.Logf("%d of %d frames out of order", late, len(frames))
			if tc.reorder && late == 0 {
				t.Error("jittered path delivered every frame in write order")
			}
			if !tc.reorder && late > 0 {
				t.Errorf("%d of %d frames out of order on a path that asks for no reordering", late, len(frames))
			}
		})
	}
}

// loopback opens a UDP socket on 127.0.0.1, skipping the test without one.
func loopback(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	return c
}

// TestPathConcurrentUse drives two jittered Paths from two writers each
// while their Delay changes under them, and reads the peer Path from two
// goroutines: every datagram arrives with its own sender's address, and
// Pending drains to zero. Under -race it checks that the delay line and
// ReadFrom's address cache are guarded. The writers keep at most a window
// of datagrams unread, so a slow reader cannot overflow the socket.
func TestPathConcurrentUse(t *testing.T) {
	const senders, writers, each, window = 2, 2, 150, 32
	rx := New(loopback(t), PathConfig{}, 12)
	var tx [senders]*Path
	for i := range tx {
		tx[i] = New(loopback(t), PathConfig{Delay: time.Millisecond, Jitter: time.Millisecond}, int64(13+i))
		defer tx[i].Close()
	}

	var got atomic.Int64
	var readers sync.WaitGroup
	defer readers.Wait()
	defer rx.Close()
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			buf := make([]byte, 64)
			for {
				n, from, err := rx.ReadFrom(buf)
				if err != nil {
					return
				}
				if i := int(buf[0]); n != 8 || i >= senders || from.String() != tx[i].LocalAddr().String() {
					t.Errorf("datagram %x from %v", buf[:n], from)
				}
				got.Add(1)
			}
		}()
	}
	var sent atomic.Int64
	var wg sync.WaitGroup
	for i := range tx {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(p *Path, i int) {
				defer wg.Done()
				msg := make([]byte, 8)
				msg[0] = byte(i)
				deadline := time.Now().Add(5 * time.Second)
				for k := 0; k < each; k++ {
					for sent.Load()-got.Load() >= window {
						if time.Now().After(deadline) {
							t.Errorf("%d datagrams sent, %d arrived", sent.Load(), got.Load())
							return
						}
						time.Sleep(100 * time.Microsecond)
					}
					sent.Add(1)
					p.WriteTo(msg, rx.LocalAddr()) //nolint:errcheck
					if k%10 == 9 {
						p.Update(func(c *PathConfig) { c.Delay = time.Duration(k%3) * time.Millisecond })
					}
				}
			}(tx[i], i)
		}
	}
	wg.Wait()
	const want = senders * writers * each
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() < want || tx[0].Pending()+tx[1].Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d datagrams arrived, %d still pending", got.Load(), want, tx[0].Pending()+tx[1].Pending())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPathSteadyStateAllocationFree pins the emulator's per-datagram cost
// at zero heap allocations: a delayed WriteTo, its delivery from the
// delay line and the peer Path's ReadFrom over a loopback *net.UDPConn
// pair. The buffer, timer, closure and source address each datagram
// once cost must not come back.
func TestPathSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	a := New(loopback(t), PathConfig{Delay: 200 * time.Microsecond}, 10)
	defer a.Close()
	b := New(loopback(t), PathConfig{}, 11)
	defer b.Close()
	to := b.LocalAddr()
	msg := make([]byte, 1200)
	buf := make([]byte, 2048)
	const burst = 8
	// rounds writes bursts of datagrams and reads each back.
	rounds := func(k int) {
		for r := 0; r < k; r++ {
			for i := 0; i < burst; i++ {
				if _, err := a.WriteTo(msg, to); err != nil {
					t.Fatal(err)
				}
			}
			b.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
			for i := 0; i < burst; i++ {
				if _, _, err := b.ReadFrom(buf); err != nil {
					t.Fatalf("read: %v", err)
				}
			}
		}
	}
	rounds(50) // line and free list grown, timer created
	const measured = 250
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rounds(measured)
	runtime.ReadMemStats(&m1)
	per := float64(m1.Mallocs-m0.Mallocs) / (measured * burst)
	t.Logf("%.3f allocs per datagram", per)
	if per > 0.1 {
		t.Errorf("%.2f heap allocations per datagram, want <= 0.1", per)
	}
}

// TestPathGilbertElliott: a chain pinned in the bad state after the first
// datagram loses everything from then on — burstiness, not coin flips.
func TestPathGilbertElliott(t *testing.T) {
	s := newSink()
	p := New(s, PathConfig{GE: &GEParams{
		PGoodBad: 1, PBadGood: 0, LossGood: 0, LossBad: 1,
	}}, 5)
	defer p.Close()
	write(t, p, 20)
	if n := len(s.got()); n != 1 {
		t.Errorf("delivered %d frames, want exactly the first (then a permanent fade)", n)
	}
	if st := p.Stats(); st.Dropped != 19 {
		t.Errorf("Dropped = %d, want 19", st.Dropped)
	}
}

// TestPathClosePendingDrains: Close cancels scheduled deliveries and the
// pending count settles to zero — the leaked-timer invariant.
func TestPathClosePendingDrains(t *testing.T) {
	s := newSink()
	p := New(s, PathConfig{Delay: 50 * time.Millisecond}, 6)
	write(t, p, 32)
	if p.Pending() == 0 {
		t.Fatal("delayed writes should be pending before close")
	}
	p.Close()
	deadline := time.Now().Add(2 * time.Second)
	for p.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d deliveries still pending after close", p.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	if n := len(s.got()); n != 0 {
		t.Errorf("%d frames delivered after close", n)
	}
}

// TestRelayForwardsBothWays: datagrams flow client → target through the
// chaos path and replies return to the client.
func TestRelayForwardsBothWays(t *testing.T) {
	target, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	r, err := NewRelay(target.LocalAddr(), PathConfig{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	client, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.WriteTo([]byte("ping"), r.Addr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	target.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	n, from, err := target.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("target read %q, %v", buf[:n], err)
	}
	if _, err := target.WriteTo([]byte("pong"), from); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	n, _, err = client.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("client read %q, %v", buf[:n], err)
	}
}
