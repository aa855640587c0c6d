package chaos

import (
	"math/rand"
	"net"
	"net/netip"
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
// Delayed datagrams wait in one delay line and leave in the order they
// are due; write order breaks ties. So a Path reorders only where its
// PathConfig asks: Jitter, ReorderRate, and an Update that shortens Delay
// (or lifts RateBps) while datagrams wait. One timer points at the line's
// head, and datagram buffers come from the Path's own free list.
//
// Path is safe for concurrent use; configuration may be mutated while
// writers are in flight (that is the point).
type Path struct {
	conn net.PacketConn
	udp  *net.UDPConn // conn, when it is one: ReadFrom's address cache

	mu       sync.Mutex
	cfg      PathConfig
	killed   bool
	geBad    bool
	nextFree time.Time // token-bucket serialisation horizon
	rng      *rand.Rand
	closed   bool

	// The delay line: line[head:] ordered by (due, write order). One
	// delivery at a time drains it, into out, outside the lock.
	line       []delivery
	head       int
	out        []delivery
	free       [][]byte // buffers of delivered datagrams
	timer      *time.Timer
	delivering bool

	rmu     sync.Mutex // ReadFrom's source-address cache
	fromAP  netip.AddrPort
	fromUDP net.Addr

	sent       atomic.Int64
	dropped    atomic.Int64
	duplicated atomic.Int64
	corrupted  atomic.Int64
	reordered  atomic.Int64
	pending    atomic.Int64 // scheduled-but-undelivered datagrams
}

// delivery is one datagram waiting in a Path's delay line.
type delivery struct {
	due  time.Time
	buf  []byte
	addr net.Addr
}

// New wraps conn in a chaos Path with the given fault model and seed.
// The Path owns conn: Close closes it and cancels pending deliveries.
func New(conn net.PacketConn, cfg PathConfig, seed int64) *Path {
	udp, _ := conn.(*net.UDPConn)
	return &Path{
		conn: conn,
		udp:  udp,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(seed)),
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
// Close would be a datagram Close failed to cancel.
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
	now := time.Now()
	delay := p.delayLocked(len(b), now)
	if p.cfg.ReorderRate > 0 && p.rng.Float64() < p.cfg.ReorderRate {
		delay += p.cfg.ReorderDelay
		p.reordered.Add(1)
	}
	dup := p.cfg.DupRate > 0 && p.rng.Float64() < p.cfg.DupRate
	var dupDelay time.Duration
	if dup {
		dupDelay = p.delayLocked(len(b), now)
		p.duplicated.Add(1)
	}

	buf := p.bufLocked(len(b))
	copy(buf, b)
	if p.cfg.CorruptRate > 0 && p.rng.Float64() < p.cfg.CorruptRate {
		p.corruptLocked(buf)
		p.corrupted.Add(1)
	}
	p.sent.Add(1)
	var dupBuf []byte
	if dup {
		p.sent.Add(1)
		dupBuf = p.bufLocked(len(buf))
		copy(dupBuf, buf)
	}
	p.scheduleLocked(buf, addr, delay, now)
	if dup {
		p.scheduleLocked(dupBuf, addr, dupDelay, now)
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

// delayLocked computes the delivery delay of a datagram written at now:
// propagation + jitter + token-bucket serialisation.
func (p *Path) delayLocked(size int, now time.Time) time.Duration {
	d := p.cfg.Delay
	if p.cfg.Jitter > 0 {
		d += time.Duration(p.rng.Int63n(int64(p.cfg.Jitter)))
	}
	if p.cfg.RateBps > 0 {
		tx := time.Duration(float64(size*8) / p.cfg.RateBps * float64(time.Second))
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

// bufLocked returns a buffer of n bytes from the free list. One too small
// is dropped for a new one, so the list settles at the largest datagram.
func (p *Path) bufLocked(n int) []byte {
	if k := len(p.free); k > 0 {
		buf := p.free[k-1]
		p.free = p.free[:k-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]byte, n)
}

// scheduleLocked writes buf now when delay is zero, and otherwise queues
// it in the delay line behind every datagram due no later, re-arming the
// timer when it becomes the head.
func (p *Path) scheduleLocked(buf []byte, addr net.Addr, delay time.Duration, now time.Time) {
	if delay <= 0 {
		p.conn.WriteTo(buf, addr) //nolint:errcheck // lossy path semantics
		p.free = append(p.free, buf)
		return
	}
	p.pending.Add(1)
	d := delivery{due: now.Add(delay), buf: buf, addr: addr}
	if len(p.line) == cap(p.line) && p.head > 0 {
		// Slide the live part down before append would grow the slice.
		n := copy(p.line, p.line[p.head:])
		clear(p.line[n:])
		p.line, p.head = p.line[:n], 0
	}
	i := len(p.line)
	p.line = append(p.line, d)
	for i > p.head && p.line[i-1].due.After(d.due) {
		p.line[i] = p.line[i-1]
		i--
	}
	p.line[i] = d
	if i == p.head {
		p.armLocked(now)
	}
}

// armLocked points the timer at the head of the delay line. A running
// delivery re-arms it when it finishes; an empty line leaves it stopped.
func (p *Path) armLocked(now time.Time) {
	if p.delivering || p.closed || p.head == len(p.line) {
		return
	}
	d := p.line[p.head].due.Sub(now)
	if p.timer == nil {
		p.timer = time.AfterFunc(d, p.deliver)
		return
	}
	p.timer.Reset(d)
}

// deliver is the timer's callback. It takes every datagram that is due
// off the line's head and writes them in order outside the lock, until
// none is due, then re-arms the timer. A callback that finds another one
// delivering leaves the work to it.
func (p *Path) deliver() {
	p.mu.Lock()
	if p.delivering {
		p.mu.Unlock()
		return
	}
	p.delivering = true
	for !p.closed {
		q := p.line[p.head:]
		now := time.Now()
		k := 0
		for k < len(q) && !q[k].due.After(now) {
			k++
		}
		if k == 0 {
			break
		}
		p.out = append(p.out[:0], q[:k]...)
		clear(q[:k])
		if p.head += k; p.head == len(p.line) {
			p.line, p.head = p.line[:0], 0
		}
		p.mu.Unlock()
		for _, d := range p.out {
			p.conn.WriteTo(d.buf, d.addr) //nolint:errcheck // lossy path semantics
			p.pending.Add(-1)
		}
		p.mu.Lock()
		for i, d := range p.out {
			p.free = append(p.free, d.buf)
			p.out[i] = delivery{}
		}
	}
	p.delivering = false
	p.armLocked(time.Now())
	p.mu.Unlock()
}

// ReadFrom passes through to the wrapped conn: faults apply on the write
// side only. Over a *net.UDPConn it reads the source as a netip.AddrPort
// and returns the same net.Addr for as long as the source stays the
// same, so a steady stream costs no address per datagram.
func (p *Path) ReadFrom(b []byte) (int, net.Addr, error) {
	if p.udp == nil {
		return p.conn.ReadFrom(b)
	}
	n, ap, err := p.udp.ReadFromUDPAddrPort(b)
	if err != nil {
		return n, nil, err
	}
	p.rmu.Lock()
	if ap != p.fromAP {
		p.fromAP, p.fromUDP = ap, net.UDPAddrFromAddrPort(ap)
	}
	from := p.fromUDP
	p.rmu.Unlock()
	return n, from, nil
}

// Close cancels pending deliveries and closes the wrapped conn.
func (p *Path) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	if p.timer != nil {
		p.timer.Stop()
	}
	// A delivery in flight settles its own datagrams; the queued ones are
	// cancelled here.
	p.pending.Add(-int64(len(p.line) - p.head))
	clear(p.line)
	p.line, p.head = p.line[:0], 0
	p.mu.Unlock()
	return p.conn.Close()
}

func (p *Path) LocalAddr() net.Addr                { return p.conn.LocalAddr() }
func (p *Path) SetDeadline(t time.Time) error      { return p.conn.SetDeadline(t) }
func (p *Path) SetReadDeadline(t time.Time) error  { return p.conn.SetReadDeadline(t) }
func (p *Path) SetWriteDeadline(t time.Time) error { return p.conn.SetWriteDeadline(t) }

var _ net.PacketConn = (*Path)(nil)
