// Package trace is the structured, time-aware protocol tracer of both
// endpoint stacks and the netsim links. The paper's §4–§6 figures are
// built from per-subflow trajectories of cwnd, srtt and loss/recovery
// events over time, and this package records exactly those trajectories
// (internal/transport on simulated time, internal/mptcpnet on wall
// clock).
//
// # Design
//
// Typed events (CwndChange, RTTSample, Loss, Retx, OppRetx, Penalty,
// SchedPick, LinkStateChange, SubflowState) are recorded by value into
// per-connection ring buffers and flushed on demand as JSONL. Two
// contracts shape the implementation:
//
//   - Zero overhead when disabled. A nil *Tracer is a valid tracer:
//     every method is nil-receiver-safe and returns immediately, and
//     the hot paths of the endpoint stacks guard their trace calls with
//     a single pointer test. With tracing off, the packet-hop and
//     timer-rearm paths still run at 0 allocs/op and simulations are
//     bit-identical to a build without the tracer — the tracer never
//     touches the world's random source.
//
//   - Deterministic output when enabled. Events are stamped with the
//     tracer's clock (simulated nanoseconds via SimNow, or wall-clock
//     nanoseconds since start via WallNow) and a per-tracer sequence
//     number. Flush writes connections in ascending trace-connection-ID
//     order and each connection's events in record order, with all
//     numbers formatted by strconv — so a simulated run's trace bytes
//     are a pure function of the seed. Connection IDs are allocated per
//     tracer (ConnID), not from any global counter, which keeps traces
//     byte-identical at any experiment-runner parallelism.
//
// Rings bound memory: each connection keeps the most recent Cap events;
// older events are dropped and counted, and the flush reports the drop
// count in that connection's meta line so truncation is never silent.
// A ring grows to its capacity only as events arrive, so a connection
// that records little (a short churn flow, say) costs little.
package trace

import (
	"io"
	"sync"
	"time"

	"mptcp/internal/sim"
)

// Kind identifies the type of one trace event.
type Kind uint8

const (
	// KindCwnd records a congestion-window change: V is the new cwnd in
	// packets. Emitted after ACK-clocked growth, loss-event decreases
	// and receive-buffer penalization.
	KindCwnd Kind = iota
	// KindRTT records a raw RTT sample (the same sample fed to the cc
	// OnRTTSample hook): V is the RTT in seconds.
	KindRTT
	// KindLoss records a loss event (the same event fed to the cc
	// OnLoss hook): Label is "fast" (fast-retransmit entry) or "rto",
	// Seq the subflow sequence at the front of the loss.
	KindLoss
	// KindRetx records one subflow-level retransmission: Seq is the
	// retransmitted subflow sequence number.
	KindRetx
	// KindOppRetx records a §6 opportunistic retransmission: Seq is the
	// blocking data sequence re-sent on this (faster) subflow.
	KindOppRetx
	// KindPenalty records a §6 subflow penalization: V is the penalized
	// subflow's cwnd after halving.
	KindPenalty
	// KindSchedPick records a scheduler decision: the subflow chosen to
	// carry new data; Seq is the data sequence assigned.
	KindSchedPick
	// KindLinkState records a netsim link state change: Name is the
	// link name, Label the change ("down", "up", "rate", "delay",
	// "loss") and V the new value (Mb/s, seconds, or loss probability;
	// 0 for down/up).
	KindLinkState
	// KindSubflowState records a subflow loss-recovery state
	// transition: Label is "open", "recovery" or "repair".
	KindSubflowState
	// KindMeta is emitted by Flush itself, never recorded: the
	// per-connection header line carrying the tracer label and the
	// ring's drop count.
	KindMeta
)

var kindNames = [...]string{
	KindCwnd:         "cwnd",
	KindRTT:          "rtt",
	KindLoss:         "loss",
	KindRetx:         "retx",
	KindOppRetx:      "oppretx",
	KindPenalty:      "penalty",
	KindSchedPick:    "sched",
	KindLinkState:    "link",
	KindSubflowState: "state",
	KindMeta:         "meta",
}

// String returns the JSONL "ev" tag of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Event is one trace record, stored by value in a connection's ring.
// Which fields are meaningful depends on Kind (see the Kind constants);
// unset numeric fields are omitted from the JSONL encoding.
type Event struct {
	// T is the event time in nanoseconds on the tracer's clock
	// (simulated time for the simulator stacks, time since tracer
	// creation for mptcpnet).
	T int64
	// Kind tags the event.
	Kind Kind
	// Conn is the tracer-scoped connection ID (see ConnID); -1 for
	// connection-less events (link state changes).
	Conn int32
	// Sub is the subflow index within the connection; -1 when the event
	// is not subflow-scoped.
	Sub int32
	// Seq is a sequence number payload (subflow seq for Retx/Loss, data
	// seq for SchedPick/OppRetx).
	Seq int64
	// V is the numeric payload (cwnd, rtt seconds, link values).
	V float64
	// Name labels link events with the link name.
	Name string
	// Label carries a short discriminator ("fast"/"rto", "down"/"up"/
	// "rate"/"delay"/"loss", "open"/"recovery"/"repair").
	Label string
}

// connRing is one connection's bounded event history. ev grows by
// append up to cap events and only then wraps, so start stays 0 until
// the ring is full.
type connRing struct {
	ev      []Event
	cap     int
	start   int   // index of oldest live event
	n       int   // live events
	dropped int64 // events overwritten since the last flush
}

func (r *connRing) push(ev Event) {
	switch {
	case r.n < len(r.ev):
		r.ev[(r.start+r.n)%len(r.ev)] = ev
		r.n++
		return
	case len(r.ev) < r.cap:
		r.ev = append(r.ev, ev)
		r.n++
		return
	}
	r.ev[r.start] = ev
	r.start = (r.start + 1) % len(r.ev)
	r.dropped++
}

// DefaultCap is the per-connection ring capacity used when New is given
// a non-positive capacity: enough for the full trajectory of a typical
// experiment cell, small enough that a grid of cells stays in memory.
const DefaultCap = 1 << 14

// Tracer records typed events into per-connection rings. The zero value
// is not usable; construct with New. A nil *Tracer is valid and inert:
// all methods return immediately, which is the disabled mode both
// endpoint stacks run in by default.
//
// Tracer is safe for concurrent use (mptcpnet records from several
// goroutines); the simulator stacks are single-threaded per world, so
// the mutex is uncontended there.
type Tracer struct {
	now   func() int64
	label string

	mu       sync.Mutex
	cap      int
	rings    []*connRing // indexed by trace connection ID
	links    connRing    // connection-less events (link state)
	nextConn int32
}

// New returns a tracer whose events are stamped by now (use SimNow or
// WallNow) with per-connection ring capacity cap (DefaultCap if <= 0).
func New(cap int, now func() int64) *Tracer {
	if cap <= 0 {
		cap = DefaultCap
	}
	t := &Tracer{now: now, cap: cap}
	t.links.cap = cap
	return t
}

// SimNow adapts a simulator's clock: events are stamped with simulated
// nanoseconds, so trace timing is exactly reproducible.
func SimNow(s *sim.Simulator) func() int64 {
	return func() int64 { return int64(s.Now()) }
}

// WallNow returns a wall-clock source counting nanoseconds since start;
// the real-socket stack (mptcpnet) traces on it.
func WallNow(start time.Time) func() int64 {
	return func() int64 { return int64(time.Since(start)) }
}

// SetLabel attaches a label (e.g. the grid-cell identity
// "MPTCP/torus/flap") that Flush emits in every connection's meta line,
// so traces from many cells concatenated into one file stay
// attributable.
func (t *Tracer) SetLabel(label string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.label = label
	t.mu.Unlock()
}

// ConnID allocates the next tracer-scoped connection ID. Both endpoint
// stacks call it once per traced connection at construction; IDs are
// dense and deterministic because connection construction order within
// one world is deterministic.
func (t *Tracer) ConnID() int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextConn
	t.nextConn++
	t.rings = append(t.rings, &connRing{cap: t.cap})
	return id
}

// Record appends ev to the owning ring, stamping ev.T from the tracer's
// clock. Events for unknown connection IDs (never allocated via ConnID)
// are dropped; Conn < 0 routes to the connection-less (link) ring.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	ev.T = t.now()
	t.mu.Lock()
	if ev.Conn < 0 {
		t.links.push(ev)
	} else if int(ev.Conn) < len(t.rings) {
		t.rings[ev.Conn].push(ev)
	}
	t.mu.Unlock()
}

// --- typed helpers: one per event kind, all nil-safe ------------------

// CwndChange records subflow sub of conn moving to cwnd packets.
func (t *Tracer) CwndChange(conn, sub int32, cwnd float64) {
	if t == nil {
		return
	}
	t.Record(Event{Kind: KindCwnd, Conn: conn, Sub: sub, V: cwnd})
}

// RTTSample records a raw RTT sample (seconds) on subflow sub.
func (t *Tracer) RTTSample(conn, sub int32, rttSec float64) {
	if t == nil {
		return
	}
	t.Record(Event{Kind: KindRTT, Conn: conn, Sub: sub, V: rttSec})
}

// Loss records a loss event; label is "fast" or "rto", seq the subflow
// sequence at the front of the loss.
func (t *Tracer) Loss(conn, sub int32, label string, seq int64) {
	if t == nil {
		return
	}
	t.Record(Event{Kind: KindLoss, Conn: conn, Sub: sub, Label: label, Seq: seq})
}

// Retx records a subflow-level retransmission of seq.
func (t *Tracer) Retx(conn, sub int32, seq int64) {
	if t == nil {
		return
	}
	t.Record(Event{Kind: KindRetx, Conn: conn, Sub: sub, Seq: seq})
}

// OppRetx records an opportunistic retransmission of dataSeq on sub.
func (t *Tracer) OppRetx(conn, sub int32, dataSeq int64) {
	if t == nil {
		return
	}
	t.Record(Event{Kind: KindOppRetx, Conn: conn, Sub: sub, Seq: dataSeq})
}

// Penalty records a receive-buffer penalization of sub; cwnd is the
// window after halving.
func (t *Tracer) Penalty(conn, sub int32, cwnd float64) {
	if t == nil {
		return
	}
	t.Record(Event{Kind: KindPenalty, Conn: conn, Sub: sub, V: cwnd})
}

// SchedPick records the scheduler assigning dataSeq to sub.
func (t *Tracer) SchedPick(conn, sub int32, dataSeq int64) {
	if t == nil {
		return
	}
	t.Record(Event{Kind: KindSchedPick, Conn: conn, Sub: sub, Seq: dataSeq})
}

// SubflowState records a loss-recovery state transition on sub: "open",
// "recovery" or "repair".
func (t *Tracer) SubflowState(conn, sub int32, state string) {
	if t == nil {
		return
	}
	t.Record(Event{Kind: KindSubflowState, Conn: conn, Sub: sub, Label: state})
}

// LinkEvent records a link state change; it implements the structural
// contract netsim.Link dispatches through (netsim defines the interface
// so the two packages stay import-cycle-free). what is "down", "up",
// "rate", "delay" or "loss"; v the new value where meaningful.
func (t *Tracer) LinkEvent(name, what string, v float64) {
	if t == nil {
		return
	}
	t.Record(Event{Kind: KindLinkState, Conn: -1, Sub: -1, Name: name, Label: what, V: v})
}

// Flush writes the buffered trace as JSONL to w and clears the rings:
// first the connection-less link events, then every connection in
// ascending trace-ID order, each opened by a meta line
//
//	{"ev":"meta","conn":N,"label":"...","events":K,"dropped":D}
//
// followed by its events in record order. The byte output is a pure
// function of the recorded events, so deterministic simulations yield
// byte-identical traces.
func (t *Tracer) Flush(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	buf := make([]byte, 0, 256)
	flushRing := func(conn int32, r *connRing) error {
		buf = appendMeta(buf[:0], conn, t.label, r.n, r.dropped)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		for i := 0; i < r.n; i++ {
			ev := r.ev[(r.start+i)%len(r.ev)]
			buf = appendEvent(buf[:0], ev)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		r.start, r.n, r.dropped = 0, 0, 0
		return nil
	}
	if t.links.n > 0 || t.links.dropped > 0 {
		if err := flushRing(-1, &t.links); err != nil {
			return err
		}
	}
	for id, r := range t.rings {
		if err := flushRing(int32(id), r); err != nil {
			return err
		}
	}
	return nil
}
