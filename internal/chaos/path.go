package chaos

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Path wraps a net.PacketConn and applies a PathConfig's faults to every
// outgoing datagram. Reads pass through untouched (wrap the peer's conn
// to shape the reverse direction). All randomness comes from the seeded
// rng handed to New, so a run's behaviour reproduces from its seed plus
// the (logged) schedule of configuration changes.
//
// Path is safe for concurrent use; configuration may be mutated while
// writers are in flight (that is the point).
type Path struct {
	conn net.PacketConn

	mu       sync.Mutex
	cfg      PathConfig
	killed   bool
	geBad    bool
	nextFree time.Time // token-bucket serialisation horizon
	rng      *rand.Rand
	closed   bool
	timers   map[int64]*time.Timer // outstanding delayed deliveries
	timerSeq int64

	sent       atomic.Int64
	dropped    atomic.Int64
	duplicated atomic.Int64
	corrupted  atomic.Int64
	reordered  atomic.Int64
	pending    atomic.Int64 // scheduled-but-undelivered datagrams
}

// New wraps conn in a chaos Path with the given fault model and seed.
// The Path owns conn: Close closes it and cancels pending deliveries.
func New(conn net.PacketConn, cfg PathConfig, seed int64) *Path {
	return &Path{
		conn:   conn,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(seed)),
		timers: make(map[int64]*time.Timer),
	}
}

// Kill makes the path eat every datagram — the radio is gone. Reads still
// pass through (a dead transmitter does not deafen the receiver).
func (p *Path) Kill() {
	p.mu.Lock()
	p.killed = true
	p.mu.Unlock()
}

// Heal reverses Kill.
func (p *Path) Heal() {
	p.mu.Lock()
	p.killed = false
	p.mu.Unlock()
}

// Update mutates the fault model in place under the lock, so one knob
// can change without racing another mutator's read-modify-write.
// Datagrams already scheduled keep the faults drawn at write time.
func (p *Path) Update(f func(*PathConfig)) {
	p.mu.Lock()
	f(&p.cfg)
	p.mu.Unlock()
}

// Stats returns the counter snapshot. Safe while writers run.
func (p *Path) Stats() Stats {
	return Stats{
		Sent:       p.sent.Load(),
		Dropped:    p.dropped.Load(),
		Duplicated: p.duplicated.Load(),
		Corrupted:  p.corrupted.Load(),
		Reordered:  p.reordered.Load(),
	}
}

// Pending returns the number of datagrams scheduled for delayed delivery
// that have not yet hit (or been cancelled from) the wire. The harness
// asserts this drains to zero at teardown — a non-zero residue after
// Close would be a leaked timer.
func (p *Path) Pending() int64 { return p.pending.Load() }

// WriteTo applies the fault model and forwards (or eats) the datagram.
// It always reports success for datagrams the chaos layer consumed: to
// the caller a lost datagram is indistinguishable from a delivered one,
// exactly as over a real lossy path.
func (p *Path) WriteTo(b []byte, addr net.Addr) (int, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0, net.ErrClosed
	}
	if p.killed || p.lostLocked() {
		p.dropped.Add(1)
		p.mu.Unlock()
		return len(b), nil
	}
	delay := p.delayLocked(len(b))
	if p.cfg.ReorderRate > 0 && p.rng.Float64() < p.cfg.ReorderRate {
		delay += p.cfg.ReorderDelay
		p.reordered.Add(1)
	}
	dup := p.cfg.DupRate > 0 && p.rng.Float64() < p.cfg.DupRate
	var dupDelay time.Duration
	if dup {
		dupDelay = p.delayLocked(len(b))
		p.duplicated.Add(1)
	}

	buf := make([]byte, len(b))
	copy(buf, b)
	if p.cfg.CorruptRate > 0 && p.rng.Float64() < p.cfg.CorruptRate {
		p.corruptLocked(buf)
		p.corrupted.Add(1)
	}
	p.sent.Add(1)
	if dup {
		p.sent.Add(1)
	}
	p.scheduleLocked(buf, addr, delay)
	if dup {
		p.scheduleLocked(buf, addr, dupDelay)
	}
	p.mu.Unlock()
	return len(b), nil
}

// lostLocked draws the loss verdict: the Gilbert–Elliott chain first
// (advancing its state), then the i.i.d. rate.
func (p *Path) lostLocked() bool {
	lost := false
	if ge := p.cfg.GE; ge != nil {
		rate := ge.LossGood
		if p.geBad {
			rate = ge.LossBad
		}
		lost = p.rng.Float64() < rate
		if p.geBad {
			if p.rng.Float64() < ge.PBadGood {
				p.geBad = false
			}
		} else if p.rng.Float64() < ge.PGoodBad {
			p.geBad = true
		}
	}
	if !lost && p.cfg.LossRate > 0 {
		lost = p.rng.Float64() < p.cfg.LossRate
	}
	return lost
}

// delayLocked computes this datagram's delivery delay: propagation +
// jitter + token-bucket serialisation.
func (p *Path) delayLocked(size int) time.Duration {
	d := p.cfg.Delay
	if p.cfg.Jitter > 0 {
		d += time.Duration(p.rng.Int63n(int64(p.cfg.Jitter)))
	}
	if p.cfg.RateBps > 0 {
		tx := time.Duration(float64(size*8) / p.cfg.RateBps * float64(time.Second))
		now := time.Now()
		if p.nextFree.Before(now) {
			p.nextFree = now
		}
		p.nextFree = p.nextFree.Add(tx)
		d += p.nextFree.Sub(now)
	}
	return d
}

// corruptLocked flips 1–3 random bits in buf.
func (p *Path) corruptLocked(buf []byte) {
	if len(buf) == 0 {
		return
	}
	for n := 1 + p.rng.Intn(3); n > 0; n-- {
		i := p.rng.Intn(len(buf))
		buf[i] ^= 1 << uint(p.rng.Intn(8))
	}
}

// scheduleLocked delivers buf after delay (immediately when zero),
// tracking the timer so Close can cancel it.
func (p *Path) scheduleLocked(buf []byte, addr net.Addr, delay time.Duration) {
	if delay <= 0 {
		p.conn.WriteTo(buf, addr) //nolint:errcheck // lossy path semantics
		return
	}
	p.pending.Add(1)
	id := p.timerSeq
	p.timerSeq++
	p.timers[id] = time.AfterFunc(delay, func() {
		p.mu.Lock()
		_, live := p.timers[id]
		delete(p.timers, id)
		closed := p.closed
		p.mu.Unlock()
		if live && !closed {
			p.conn.WriteTo(buf, addr) //nolint:errcheck
		}
		// If this callback runs at all, Close's Stop() either never
		// happened or returned false (and so did not settle the count):
		// the decrement is always ours.
		p.pending.Add(-1)
	})
}

// ReadFrom passes through to the wrapped conn: faults apply on the write
// side only.
func (p *Path) ReadFrom(b []byte) (int, net.Addr, error) { return p.conn.ReadFrom(b) }

// Close cancels pending deliveries and closes the wrapped conn.
func (p *Path) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for id, tm := range p.timers {
		if tm.Stop() {
			// Stopped before firing: settle its pending count here. A
			// timer that already fired settles its own (it will find its
			// id gone from the map).
			p.pending.Add(-1)
		}
		delete(p.timers, id)
	}
	p.mu.Unlock()
	return p.conn.Close()
}

func (p *Path) LocalAddr() net.Addr                { return p.conn.LocalAddr() }
func (p *Path) SetDeadline(t time.Time) error      { return p.conn.SetDeadline(t) }
func (p *Path) SetReadDeadline(t time.Time) error  { return p.conn.SetReadDeadline(t) }
func (p *Path) SetWriteDeadline(t time.Time) error { return p.conn.SetWriteDeadline(t) }

var _ net.PacketConn = (*Path)(nil)
