// Package sim provides a deterministic discrete-event simulation engine.
//
// It is the substrate under the packet-level network simulator used to
// reproduce the evaluation of "Design, implementation and evaluation of
// congestion control for multipath TCP" (Wischik et al., NSDI 2011). The
// engine is single-threaded and fully deterministic: events firing at the
// same instant are executed in scheduling order, and all randomness flows
// from one seeded source. A Sharded engine partitions one simulation into
// many Simulators coupled by fixed-latency Pipes, and still runs them all
// on the calling goroutine.
//
// # Zero-allocation scheduling
//
// The event queue is a binary min-heap of pointer-free {time, sequence,
// slot} entries; what an entry dispatches — a Handler and its argument,
// or the head of a Lane — lives in a slot table beside it, recycled
// through a free list. One-shot functions (At/After) and rearmable
// timers (NewTimer) are Handlers too, so every event but a lane head is
// dispatched one way. Scheduling never allocates per event: typed events
// (Post) carry a pre-built handler interface plus a pointer-sized
// argument, rearmable timers are re-keyed in place by Reset, and a Lane
// keeps a whole FIFO of events behind one heap entry. Cancelled events
// are removed eagerly, so the heap holds live events only. A timer's
// owner keeps it for as long as it needs one; a pooled connection keeps
// its timers across its lives.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Time is a simulated instant measured in integer nanoseconds since the
// start of the simulation. Integer time keeps the engine exactly
// reproducible across runs and platforms.
type Time int64

// Duration constants, mirroring package time but in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// Handler consumes a typed event posted with Simulator.Post. Implementing
// it lets an object (a network, an endpoint) receive scheduled callbacks
// without a per-event closure: the packet-forward hot path schedules
// {handler, argument} pairs that are stored by value in the slot table.
type Handler interface {
	OnEvent(arg any)
}

// funcEvent is a one-shot function scheduled with At/After. A func value
// is pointer-shaped, so converting it to Handler does not allocate.
type funcEvent func()

func (f funcEvent) OnEvent(any) { f() }

// entry is one heap element: the (at, seq) key and the slot of its
// payload. It holds no pointers, so a sift moves 24 bytes per level with
// no write barrier.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

// payload is what a queued entry dispatches: h.OnEvent(arg), or, when
// ln is set, the head item of that lane.
type payload struct {
	h   Handler
	arg any
	ln  *Lane
}

// Timer is a rearmable handle to a scheduled event, created with
// Simulator.NewTimer. Reset rearms it in place: if the timer is queued,
// its entry is re-keyed and the heap repaired (heap fix), so
// stop-and-rearm cycles — a retransmission timer touched on every ACK —
// create no garbage and leave no dead entries in the queue.
type Timer struct {
	s    *Simulator
	fn   func()
	slot int32 // slot of the timer's queued entry, -1 when idle
}

// Stop cancels the timer, removing its event from the queue. It is safe
// to call on a timer that has already fired or been stopped. It reports
// whether the call prevented the event from firing.
func (t *Timer) Stop() bool {
	if t == nil || t.slot < 0 {
		return false
	}
	t.s.remove(int(t.s.pos[t.slot]))
	t.slot = -1
	return true
}

// OnEvent fires the timer; the simulator calls it when the timer is
// due. The timer goes idle before the callback, so the callback may
// rearm it.
func (t *Timer) OnEvent(any) {
	t.slot = -1
	t.fn()
}

// Reset (re)arms the timer to fire d from now. If the timer is already
// queued its event is rearmed in place; otherwise a fresh event is
// pushed. Like the initial scheduling, a rearm counts as a new scheduling
// for same-instant ordering purposes.
func (t *Timer) Reset(d Time) { t.ResetAt(t.s.now + d) }

// ResetAt (re)arms the timer to fire at absolute time at.
func (t *Timer) ResetAt(at Time) {
	s := t.s
	if t.slot < 0 {
		t.slot = s.push(at)
		s.slots[t.slot].h = t
	} else {
		s.checkFuture(at)
		s.seq++
		s.fix(int(s.pos[t.slot]), entry{at, s.seq, t.slot})
	}
}

// Lane is a FIFO of typed events for one Handler, for a source whose
// event times never decrease — a link's departures. The whole lane is
// one heap entry keyed by its head; every item still draws its sequence
// number when posted, exactly as Post does, so the dispatch order is the
// one Post would give while the heap stays O(lanes) instead of O(items).
type Lane struct {
	s       *Simulator
	h       Handler
	q       []laneItem // ring; len(q) is a power of two
	head, n int
}

type laneItem struct {
	at  Time
	seq uint64
	arg any
}

// NewLane returns an empty lane delivering to h.
func (s *Simulator) NewLane(h Handler) *Lane { return &Lane{s: s, h: h} }

// Post schedules h.OnEvent(arg) at absolute time at. A post earlier than
// the lane's newest item cannot queue behind it and becomes an ordinary
// Post with the same key, so the lane never reorders anything.
func (l *Lane) Post(at Time, arg any) {
	s := l.s
	switch {
	case l.n == 0:
		s.slots[s.push(at)].ln = l
	case at < l.q[(l.head+l.n-1)&(len(l.q)-1)].at:
		s.Post(at, l.h, arg)
		return
	default:
		s.seq++
		s.behind++
	}
	if l.n == len(l.q) {
		q := make([]laneItem, max(2*l.n, 8))
		for i := range l.q {
			q[i] = l.q[(l.head+i)&(l.n-1)]
		}
		l.q, l.head = q, 0
	}
	l.q[(l.head+l.n)&(len(l.q)-1)] = laneItem{at, s.seq, arg}
	l.n++
}

// Simulator is a discrete-event scheduler. The zero value is not usable;
// construct with New.
type Simulator struct {
	now    Time
	heap   []entry   // binary min-heap ordered by (at, seq)
	slots  []payload // payloads of the queued entries, by slot
	pos    []int32   // slot → heap position
	spare  []int32   // free slots
	behind int       // lane items queued behind their lane's head entry
	seq    uint64
	rng    *rand.Rand
	nsteps uint64
}

// New returns a Simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Steps returns the number of events executed so far. It is useful for
// reporting simulator throughput in benchmarks.
func (s *Simulator) Steps() uint64 { return s.nsteps }

// NewTimer returns an idle rearmable timer that runs fn when it fires;
// arm it with Reset.
func (s *Simulator) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil function")
	}
	return &Timer{s: s, fn: fn, slot: -1}
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it is always a bug in the caller. For an event that must be
// cancelled or rearmed later, use NewTimer instead.
func (s *Simulator) At(t Time, fn func()) { s.Post(t, funcEvent(fn), nil) }

// After schedules fn to run d nanoseconds from now.
func (s *Simulator) After(d Time, fn func()) {
	s.At(s.now+d, fn)
}

// Post schedules h.OnEvent(arg) at absolute time t. This is the
// allocation-free path for typed events: the handler interface and the
// (pointer-sized) argument are stored by value in the slot table, so the
// cost is one heap insert and nothing for the garbage collector.
func (s *Simulator) Post(t Time, h Handler, arg any) {
	p := &s.slots[s.push(t)]
	p.h, p.arg = h, arg
}

// RunUntil executes events in timestamp order until the event queue is
// exhausted or the next event is later than end. The clock is left at the
// time of the last executed event, or at end if no event at or before end
// remains.
func (s *Simulator) RunUntil(end Time) {
	s.run(end)
	if s.now < end {
		s.now = end
	}
}

// Run executes events until the queue empties.
func (s *Simulator) Run() { s.run(math.MaxInt64) }

// run dispatches, in (at, seq) order, every event due at or before end.
func (s *Simulator) run(end Time) {
	for len(s.heap) > 0 && s.heap[0].at <= end {
		e := s.heap[0]
		s.now = e.at
		// Each branch takes what it needs out of the payload and settles
		// the heap before calling out: the callee may schedule anything.
		p := &s.slots[e.slot]
		h, arg := p.h, p.arg
		if l := p.ln; l != nil {
			// Re-key the top to the lane's next item (one sift) rather
			// than pop now and push later.
			h, arg = l.h, l.q[l.head].arg
			l.q[l.head].arg = nil
			l.head = (l.head + 1) & (len(l.q) - 1)
			if l.n--; l.n > 0 {
				s.behind--
				s.down(0, entry{l.q[l.head].at, l.q[l.head].seq, e.slot})
			} else {
				s.remove(0)
			}
		} else {
			s.remove(0)
		}
		h.OnEvent(arg)
		s.nsteps++
	}
}

// Pending returns the number of scheduled events not yet dispatched,
// items queued in lanes included. Cancelled events are removed eagerly,
// so every pending event is live.
func (s *Simulator) Pending() int { return len(s.heap) + s.behind }

// --- event heap: binary min-heap over []entry ordered by (at, seq).
// Implemented directly (not via container/heap) so pushes never box
// through an interface, and sifted by moving a hole: one store per level.

func less(a, b entry) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

func (s *Simulator) checkFuture(at Time) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
}

// place stores e at heap position i and records where its slot went.
func (s *Simulator) place(i int, e entry) {
	s.heap[i] = e
	s.pos[e.slot] = int32(i)
}

// up places e at position i or above it.
func (s *Simulator) up(i int, e entry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(e, s.heap[parent]) {
			break
		}
		s.place(i, s.heap[parent])
		i = parent
	}
	s.place(i, e)
}

// down places e at position i or below it.
func (s *Simulator) down(i int, e entry) {
	for n := len(s.heap); ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(s.heap[r], s.heap[c]) {
			c = r
		}
		if !less(s.heap[c], e) {
			break
		}
		s.place(i, s.heap[c])
		i = c
	}
	s.place(i, e)
}

// fix places e, whose key may have moved either way, from position i.
func (s *Simulator) fix(i int, e entry) {
	if i > 0 && less(e, s.heap[(i-1)/2]) {
		s.up(i, e)
	} else {
		s.down(i, e)
	}
}

// push queues a new entry at time at under the next sequence number and
// returns its slot, whose zeroed payload the caller fills in.
func (s *Simulator) push(at Time) int32 {
	s.checkFuture(at)
	s.seq++
	var slot int32
	if n := len(s.spare); n > 0 {
		slot, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		slot = int32(len(s.slots))
		s.slots, s.pos = append(s.slots, payload{}), append(s.pos, 0)
	}
	s.heap = append(s.heap, entry{})
	s.up(len(s.heap)-1, entry{at, s.seq, slot})
	return slot
}

// remove deletes the entry at heap position i (the dispatched top, or a
// cancelled timer) and frees its slot, dropping the payload's references.
func (s *Simulator) remove(i int) {
	slot := s.heap[i].slot
	s.slots[slot] = payload{}
	s.spare = append(s.spare, slot)
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if i < n {
		s.fix(i, last)
	}
}
