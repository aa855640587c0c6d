// Package transport implements the TCP and MPTCP endpoint models that run
// over the packet-level network of internal/netsim.
//
// A Conn is a connection with one or more subflows, each taking its own
// route. Single-path TCP is simply a Conn with one subflow driven by
// core.Regular — exactly how the paper treats it.
//
// The protocol itself — per-subflow NewReno machinery, the §6 data
// sequence space, data ACKs, shared receive window, reinjection and
// receive-buffer countermeasures, with window arithmetic delegated to a
// core.Algorithm and placement of new data to a sched.Scheduler (default:
// the historical first-fit striping) — is internal/proto's, shared with
// the real-UDP stack. This package is its simulator shell: it maps the
// core's emissions onto netsim.Packets and Routes, its timers onto
// sim.Timers, draws the send jitter, recycles connections through
// ConnPool and guards each life of a pooled connection by FlowID.
//
// Sequence numbers count packets, not bytes, and windows are maintained
// in packets, as the paper presents them.
package transport

import (
	"fmt"
	"sync/atomic"

	"mptcp/internal/core"
	"mptcp/internal/netsim"
	"mptcp/internal/proto"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
	"mptcp/internal/trace"
)

// Infinite marks an unlimited data supply (a long-lived flow).
const Infinite = proto.Infinite

// sendJitter is the maximum uniform random delay added to each data
// packet transmission (FIFO order within a subflow is preserved). A
// small jitter breaks the drop-tail phase locking that plagues
// deterministic simulations of flows with identical RTTs (Floyd &
// Jacobson, "On Traffic Phase Effects in Packet-Switched Gateways").
const sendJitter = 100 * sim.Microsecond

// Path is the pair of routes used by one subflow: Fwd carries data from
// sender to receiver, Rev carries ACKs back.
type Path struct {
	Fwd []*netsim.Link
	Rev []*netsim.Link
}

// Config parameterises a connection.
type Config struct {
	// Alg is the congestion-avoidance algorithm. Defaults to
	// &core.MPTCP{} for multiple paths and core.Regular{} for one.
	Alg core.Algorithm

	// Sched assigns new data segments to subflows. Defaults to
	// sched.FirstFit — fill subflows in configuration order, the
	// historical striping of this stack (and of the paper's "stripes
	// packets across these subflows as space in the subflow windows
	// becomes available"). Loss-recovery transmissions never go through
	// the scheduler.
	Sched sched.Scheduler

	// SchedOpts enables the §6 receive-buffer-blocking countermeasures
	// (opportunistic retransmission, subflow penalization); both default
	// off.
	SchedOpts sched.Options

	// Paths lists one Path per subflow; at least one is required.
	Paths []Path

	// DataPackets is the number of data packets the application wants to
	// transfer; Infinite for a long-lived flow.
	DataPackets int64

	// RecvBuf is the shared receive buffer in packets (§6). Defaults to
	// a window large enough never to bind (1<<20).
	RecvBuf int64

	// DisableReinject turns off data-level reinjection: after an RTO on
	// one subflow, outstanding data is normally also made available to
	// other subflows so a dead path cannot strand the stream.
	DisableReinject bool

	// OnComplete, if set, is invoked with the connection once the final
	// data packet is cumulatively acknowledged (finite flows only). It
	// takes the connection as its argument so that one function can
	// serve every connection of a workload.
	OnComplete func(*Conn)

	// Tracer, when non-nil, records the connection's protocol events —
	// cwnd changes, RTT samples, losses, retransmissions, scheduler
	// picks, §6 countermeasures — into internal/trace ring buffers. The
	// default nil disables tracing: every trace site is guarded by one
	// pointer test, the hot path stays allocation-free, and simulation
	// results are bit-identical with tracing on or off (the tracer never
	// touches the world's random source).
	Tracer *trace.Tracer
}

// Conn is the sender side of a (multipath) connection together with its
// receiver model. Create with NewConn, then Start. It is the simulator
// shell of the protocol core: it owns the routes, the timers and the
// send-jitter draw, and implements proto.Shell. Its persist timer fires
// into the Conn itself (OnEvent).
//
// A connection is one block: the receiver and the persist timer are
// fields, the subflows — each with its RTO timer and both its routes —
// one slice of values, and a fresh connection's routes one array.
type Conn struct {
	ID int
	// OppRetx counts opportunistic retransmissions; Penalties counts
	// subflow-penalization window halvings (both 0 unless SchedOpts
	// enables the countermeasures). Kept by the protocol core.
	*proto.Counters

	net  *netsim.Net
	cfg  Config
	core proto.Sender
	subs []Subflow
	recv Receiver

	started   bool
	startedAt sim.Time
	doneAt    sim.Time
	err       error // why the core gave up, or nil
	persist   sim.Timer
	liveAt    int // index in its ConnPool's live set while handed out
}

// nextConnID is atomic because independent simulator worlds construct
// connections concurrently (internal/exp's parallel runner). The ID is
// purely diagnostic (packet FlowID labels, String()), so the allocation
// order never influences simulation results.
var nextConnID atomic.Int64

// NewConn builds a connection and its receiver, and wires the routes.
func NewConn(nw *netsim.Net, cfg Config) *Conn {
	c := &Conn{}
	c.init(nw, cfg)
	return c
}

// init (re)constructs the connection in place. A zero Conn becomes a
// fresh connection, whose 2n routes come from one array; a completed
// connection is rebuilt for a new life (ConnPool), reusing its subflows
// and their timers, the protocol core's grown scoreboard rings and
// scratch slices, and its receiver's bit rings. Reuse requires an equal
// path count (the pool keys on it); on mismatch everything is rebuilt. A
// route object is kept only when the new life's path is the very slice
// the old life used (see sameLinks): a packet from the previous life
// still in flight then crosses the same links to the same endpoint as it
// would have, and the FlowID guard in the receive paths discards it on
// arrival. Any other path gets a fresh route object and leaves the old
// one, in the array or not, intact for such stragglers.
func (c *Conn) init(nw *netsim.Net, cfg Config) {
	if len(cfg.Paths) == 0 {
		panic("transport: connection needs at least one path")
	}
	if cfg.RecvBuf <= 0 {
		cfg.RecvBuf = 1 << 20
	}
	if cfg.DataPackets == 0 {
		cfg.DataPackets = Infinite
	}
	if cfg.Sched == nil {
		cfg.Sched = sched.FirstFit{}
	}
	n := len(cfg.Paths)
	c.ID = int(nextConnID.Add(1))
	c.net, c.cfg = nw, cfg
	c.started, c.startedAt, c.doneAt, c.err = false, 0, 0, nil
	c.core.Reset(c, proto.SenderConfig{
		Subflows:        n,
		Alg:             cfg.Alg,
		Sched:           cfg.Sched,
		SchedOpts:       cfg.SchedOpts,
		Total:           cfg.DataPackets,
		Window:          cfg.RecvBuf,
		DisableReinject: cfg.DisableReinject,
		Tracer:          cfg.Tracer,
	})
	if cfg.DataPackets != Infinite {
		c.core.Finish()
	}
	c.Counters = &c.core.Counters
	// The timers are set up once, kept for every life and rearmed in
	// place (the RTO on every ACK) rather than re-created: the core stops
	// them when a life ends, and a timer takes its place in the event
	// order from each Reset, not from the object.
	if len(c.subs) != n {
		c.subs = make([]Subflow, n)
		routes := make([]netsim.Route, 2*n)
		for i, p := range cfg.Paths {
			sf := &c.subs[i]
			routes[2*i], routes[2*i+1] = netsim.Route{Links: p.Fwd, Dest: &c.recv}, netsim.Route{Links: p.Rev, Dest: sf}
			sf.conn, sf.id, sf.fwd, sf.rev = c, i, &routes[2*i], &routes[2*i+1]
			sf.rto.Init(nw.Sim, sf)
		}
		c.persist.Init(nw.Sim, c)
	}
	c.recv.conn, c.recv.stalled = c, false
	c.recv.Reset(n, cfg.RecvBuf, proto.AckEveryPacket)
	for i, p := range cfg.Paths {
		sf := &c.subs[i]
		sf.SubflowStats, sf.nextSend = c.core.Stats(i), 0
		if !sameLinks(sf.fwd.Links, p.Fwd) {
			sf.fwd = netsim.NewRoute(&c.recv, p.Fwd...)
		}
		if !sameLinks(sf.rev.Links, p.Rev) {
			sf.rev = netsim.NewRoute(sf, p.Rev...)
		}
	}
}

// sameLinks reports whether a and b are the same slice — same backing
// array position and length — not merely equal element by element.
func sameLinks(a, b []*netsim.Link) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Start begins transmission at the current simulated time.
func (c *Conn) Start() {
	if c.started {
		return
	}
	c.started = true
	c.startedAt = c.net.Sim.Now()
	c.core.Pump(c.now())
}

func (c *Conn) now() proto.Time { return proto.Time(c.net.Sim.Now()) }

// Receiver returns the connection's receiver model.
func (c *Conn) Receiver() *Receiver { return &c.recv }

// Subflows returns the sender-side subflows (read-only use).
func (c *Conn) Subflows() []Subflow { return c.subs }

// Alg returns the congestion control algorithm driving the connection.
func (c *Conn) Alg() core.Algorithm { return c.core.Alg() }

// Done reports whether a finite flow has been fully acknowledged (or the
// connection was stopped, or gave up: see Err).
func (c *Conn) Done() bool { return c.core.Done() }

// Stop terminates the connection immediately: no more transmissions, all
// timers cancelled. Used by experiments that remove flows mid-run (§2.4's
// departing flow, the server workload's completed transfers).
func (c *Conn) Stop() {
	if c.core.Done() {
		return
	}
	c.core.Stop()
	c.doneAt = c.net.Sim.Now()
}

// Completed implements proto.Shell: the final data packet was
// cumulatively acknowledged, or, with an error, the core gave up on a
// connection whose every path is dead. The core has already stopped
// every timer, so OnComplete may Put this very connection back into its
// pool and even Get it again for a new life; a connection that gave up
// keeps its error for Err instead.
func (c *Conn) Completed(err error) {
	c.doneAt = c.net.Sim.Now()
	if c.err = err; err == nil && c.cfg.OnComplete != nil {
		c.cfg.OnComplete(c)
	}
}

// Err returns why the connection gave up, or nil.
func (c *Conn) Err() error { return c.err }

// StartedAt returns when Start was called.
func (c *Conn) StartedAt() sim.Time { return c.startedAt }

// CompletedAt returns when the flow finished (finite flows).
func (c *Conn) CompletedAt() sim.Time { return c.doneAt }

// Delivered returns the count of data packets delivered in order to the
// receiving application.
func (c *Conn) Delivered() int64 { return c.recv.DataRcvNxt() }

// SubflowDelivered returns the number of distinct data packets the
// receiver obtained via subflow i (per-path goodput, used by Fig. 15/17).
func (c *Conn) SubflowDelivered(i int) int64 { return c.recv.SubDelivered(i) }

// Cwnd returns subflow i's congestion window in packets.
func (c *Conn) Cwnd(i int) float64 { return c.core.Cwnd(i) }

// SRTT returns subflow i's smoothed RTT estimate.
func (c *Conn) SRTT(i int) sim.Time { return sim.Time(c.core.SRTT(i)) }

// Emit implements proto.Shell: it puts the packet on the wire after a
// small random host-processing jitter that breaks drop-tail phase locking
// while preserving FIFO order within the subflow. The jitter is the
// shell's one random draw per emission.
func (c *Conn) Emit(sub int, seq, dataSeq int64, retx bool) {
	sf, nw := &c.subs[sub], c.net
	at := max(nw.Sim.Now()+sim.Time(nw.Sim.Rand().Int63n(int64(sendJitter)+1)), sf.nextSend)
	sf.nextSend = at
	p := nw.AllocPacket()
	p.Size = netsim.DataPacketSize
	p.FlowID = c.ID
	p.SubflowID = sub
	p.Seq = seq
	p.DataSeq = dataSeq
	p.SentAt = at
	p.Retx = retx
	nw.SendAt(at, sf.fwd, p)
}

// Probe implements proto.Shell: a tiny packet that elicits an ACK
// carrying the current window.
func (c *Conn) Probe(sub int) {
	p := c.net.AllocPacket()
	p.Size = netsim.AckPacketSize
	p.FlowID = c.ID
	p.SubflowID = sub
	p.IsProbe = true
	p.SentAt = c.net.Sim.Now()
	c.net.Send(c.subs[sub].fwd, p)
}

// ArmRTO, StopRTO, ArmPersist and StopPersist implement proto.Shell over
// sim.Timer, which rearms in place: the per-ACK stop-and-rearm leaves no
// dead entry in the event queue and allocates nothing.
func (c *Conn) ArmRTO(sub int, d proto.Time) { c.subs[sub].rto.Reset(sim.Time(d)) }
func (c *Conn) StopRTO(sub int)              { c.subs[sub].rto.Stop() }
func (c *Conn) ArmPersist(d proto.Time)      { c.persist.Reset(sim.Time(d)) }
func (c *Conn) StopPersist()                 { c.persist.Stop() }

// OnEvent fires the persist timer (sim.Handler).
func (c *Conn) OnEvent(any) { c.core.OnPersist(c.now()) }

func (c *Conn) String() string {
	return fmt.Sprintf("conn%d[%s,%d subflows]", c.ID, c.Alg().Name(), len(c.subs))
}
