package mptcpnet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mptcp/internal/cc"
	"mptcp/internal/core"
	"mptcp/internal/sched"
	"mptcp/internal/trace"
)

// Config parameterises a sender.
type Config struct {
	// Alg is the coupled congestion controller; defaults to &core.MPTCP{}.
	Alg core.Algorithm
	// Sched picks the subflow for each new segment (any scheduler from
	// internal/sched's registry); defaults to minRTT, the Linux MPTCP
	// default and this stack's historical behaviour.
	Sched sched.Scheduler
	// SchedOpts enables the §6 receive-buffer-blocking countermeasures
	// (opportunistic retransmission, subflow penalization); both default
	// off.
	SchedOpts sched.Options
	// MinRTO bounds the retransmission timer (default 200 ms).
	MinRTO time.Duration
	// Logf, if set, receives debug traces.
	Logf func(format string, args ...any)
	// Tracer, when non-nil, records the sender's protocol events (cwnd
	// changes, RTT samples, losses, retransmissions, scheduler picks, §6
	// countermeasures) into internal/trace ring buffers, stamped on the
	// tracer's clock — construct it with trace.WallNow for this wall-
	// clock stack. nil (the default) disables tracing at zero cost.
	Tracer *trace.Tracer
}

// Sender is the transmitting side of a multipath connection. It
// implements io.WriteCloser; Write blocks when both the send buffer and
// the network are full, providing backpressure.
type Sender struct {
	cfg    Config
	connID uint64
	subs   []*sendSubflow
	alg    core.Algorithm

	// Optional algorithm hooks (internal/cc's extended contract),
	// resolved once; nil when the algorithm does not implement them.
	// Invoked with mu held, like every other algorithm call.
	rttObs  cc.RTTObserver
	lossObs cc.LossObserver

	// Scheduler state (all used with mu held): the configured scheduler,
	// whether it duplicates segments across subflows (resolved once,
	// like the cc hooks), and a scratch View slice rebuilt per pick.
	sched     sched.Scheduler
	redundant bool
	views     []sched.View
	// dupNxt is the redundant scheduler's per-subflow replay frontier:
	// the next data sequence subflow i should (re)carry. Nil unless the
	// scheduler duplicates.
	dupNxt []int64

	// oppSeq remembers the last data sequence opportunistically
	// retransmitted, so each receive-buffer-blocking segment is re-sent
	// at most once (§6 countermeasures).
	oppSeq int64

	mu   sync.Mutex
	cond *sync.Cond
	cc   []core.Subflow
	// segs holds the payload frame of every data sequence in
	// [dataUna, dataEnd): Write fills dataEnd, [dataUna, dataNxt) has been
	// sent at least once, and [dataNxt, dataEnd) is the queue not yet
	// assigned to a subflow. A frame is freed when the data-level ACK
	// passes it.
	segs       ring[*frame]
	dataEnd    int64
	dataNxt    int64
	dataUna    int64
	edge       int64 // flow-control edge (dataAck + window)
	reinj      []int64
	closed     bool
	finSent    bool
	finRetries int
	err        error
	done       chan struct{} // closed once the stream is fully acknowledged
	doneClosed bool

	// Counters, guarded by mu; snapshotted coherently by Stats().
	segsSent  int64
	segsRetx  int64
	reinjects int64
	oppRetx   int64
	penalties int64

	// corrupt counts inbound frames dropped by the checksum; atomic (not
	// mu) because readLoop bumps it without taking the connection lock.
	corrupt atomic.Int64

	// tracer is nil unless Config.Tracer enabled tracing; traceID is the
	// sender's tracer-scoped connection ID.
	tracer  *trace.Tracer
	traceID int32
}

type sendSubflow struct {
	id     int
	conn   net.PacketConn
	remote net.Addr
	parent *Sender

	// sendQ feeds the subflow's single writer goroutine (writeLoop):
	// socket writes leave in exactly the order transmit queued them.
	// One goroutine per WriteTo (the previous design) let the scheduler
	// reorder in-subflow transmissions, manufacturing spurious dupSACKs
	// and fast retransmits on a loss-free path.
	sendQ chan *frame

	// meta is the scoreboard of [sndUna, sndNxt), by subflow sequence.
	sndNxt, sndUna int64
	meta           ring[sentSeg]
	dupSacks       int64
	recover        int64
	inRec          bool

	// timer is created once and re-armed with Reset; deadline is when the
	// armed RTO really expires, so a callback that fires early or lost a
	// race with an ACK can tell (see onRTO).
	srtt, rttvar, rto time.Duration
	timer             *time.Timer
	timerOn           bool
	deadline          time.Time
	start             time.Time

	// rtoStreak counts consecutive RTOs since this subflow last made
	// cumulative-ACK progress; when every subflow's streak reaches
	// maxRTOStreak the sender gives up. Guarded by the parent's mu.
	rtoStreak int

	// nextPenalty rate-limits receive-buffer penalization (§6) to once
	// per RTT on this subflow. Guarded by the parent's mu.
	nextPenalty time.Time

	rng *rand.Rand
}

// sentSeg is the sender-side scoreboard entry for one outstanding
// segment. RTT comes from the echoed timestamp (with retransmission-
// ambiguous samples suppressed via retx, Karn's rule), so no per-segment
// send time is kept.
type sentSeg struct {
	dataSeq int64
	sacked  bool
	retx    bool
}

// defaultWindow is the conservative flow-control edge assumed until the
// first ACK advertises the receiver's real shared-buffer window.
const defaultWindow = 64

// maxRTO bounds the retransmission timer (RFC 6298 §2.5 allows a maximum
// of at least 60 seconds; the simulator transport applies the same cap).
const maxRTO = 60 * time.Second

// maxFinRetries bounds the FIN retransmission chain when the peer never
// acknowledges: after this many (exponentially backed-off) attempts the
// sender gives up and releases its goroutines instead of rescheduling
// timers forever.
const maxFinRetries = 12

// maxRTOStreak is the data-level give-up bound: when EVERY subflow has
// suffered this many consecutive retransmission timeouts with no
// cumulative-ACK progress anywhere, the connection is dead end to end
// (all radios gone and staying gone) and the sender aborts with an error
// rather than retransmitting forever — the transfers-complete-or-fail
// invariant the chaos harness asserts. A single live subflow resets its
// own streak on every ACK, so no amount of chaos on the other paths
// trips this while one path still delivers. Eight doublings put the
// final wait at 256× the measured RTO — patient enough to ride out any
// plausible congestion event, yet bounded (seconds to about a minute)
// rather than the hours twelve doublings would cost.
const maxRTOStreak = 8

// sendQueueCap is the per-subflow writer queue depth, in segments.
const sendQueueCap = 512

// NewSender builds a sender whose subflow i talks over conns[i] to
// remotes[i]. The caller owns the PacketConns until Close.
func NewSender(connID uint64, conns []net.PacketConn, remotes []net.Addr, cfg Config) *Sender {
	if len(conns) == 0 || len(conns) != len(remotes) {
		panic("mptcpnet: need one remote per subflow conn")
	}
	if cfg.Alg == nil {
		cfg.Alg = &core.MPTCP{}
	}
	if cfg.Sched == nil {
		cfg.Sched = sched.MinRTT{}
	}
	if cfg.MinRTO <= 0 {
		cfg.MinRTO = 200 * time.Millisecond
	}
	s := &Sender{
		cfg:    cfg,
		connID: connID,
		alg:    cfg.Alg,
		sched:  cfg.Sched,
		edge:   defaultWindow,
		done:   make(chan struct{}),
		oppSeq: -1,
		tracer: cfg.Tracer,
	}
	s.traceID = cfg.Tracer.ConnID() // nil-safe: -1 when tracing is off
	s.rttObs, _ = s.alg.(cc.RTTObserver)
	s.lossObs, _ = s.alg.(cc.LossObserver)
	if d, ok := s.sched.(sched.Duplicator); ok {
		s.redundant = d.Duplicates()
	}
	if s.redundant {
		s.dupNxt = make([]int64, len(conns))
	}
	s.views = make([]sched.View, len(conns))
	s.cond = sync.NewCond(&s.mu)
	now := time.Now()
	for i := range conns {
		sf := &sendSubflow{
			id:     i,
			conn:   conns[i],
			remote: remotes[i],
			parent: s,
			sendQ:  make(chan *frame, sendQueueCap),
			rto:    time.Second,
			start:  now,
			rng:    rand.New(rand.NewSource(int64(connID)*31 + int64(i))),
		}
		sf.timer = time.AfterFunc(maxRTO, sf.onRTO)
		sf.timer.Stop() // armed by the first transmission
		s.subs = append(s.subs, sf)
		s.cc = append(s.cc, core.Subflow{Cwnd: 2, SSThresh: 1 << 30})
	}
	for _, sf := range s.subs {
		go sf.readLoop()
		go sf.writeLoop()
	}
	return s
}

// Write queues p for transmission, blocking on flow control. It
// implements io.Writer over the data stream.
func (s *Sender) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errors.New("mptcpnet: write on closed sender")
	}
	n := 0
	for len(p) > 0 {
		seg := p
		if len(seg) > MaxPayload {
			seg = seg[:MaxPayload]
		}
		// Backpressure: cap the unassigned queue — but keep the network
		// pumped before blocking, or nothing would ever drain it.
		if s.dataEnd-s.dataNxt > 1024 {
			s.pumpLocked()
			for s.dataEnd-s.dataNxt > 1024 && s.err == nil && !s.closed {
				s.cond.Wait()
			}
		}
		if s.err != nil {
			return n, s.err
		}
		f := getFrame()
		f.n = headerSize + copy(f.buf[headerSize:], seg)
		s.segs.put(s.dataUna, s.dataEnd, f)
		s.dataEnd++
		p = p[len(seg):]
		n += len(seg)
	}
	s.pumpLocked()
	return n, nil
}

// Close marks the end of the stream; the FIN is delivered reliably. It
// does not wait for acknowledgment — use Wait.
func (s *Sender) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.pumpLocked()
	s.maybeFinishLocked()
	return nil
}

// Wait blocks until all data (and the FIN) has been acknowledged, or the
// timeout expires.
func (s *Sender) Wait(timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-s.done: // finished or aborted
	case <-t.C:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.finishedLocked():
		return nil
	case s.err != nil:
		return s.err
	}
	return fmt.Errorf("mptcpnet: %d segments unacked at timeout", s.dataNxt-s.dataUna)
}

func (s *Sender) finishedLocked() bool {
	return s.closed && s.dataUna >= s.dataEnd && s.finSent
}

// maybeFinishLocked closes done once the stream is fully acknowledged.
// The close releases the writer goroutines and terminates the FIN
// retransmission chain, which previously leaked timers past Close.
func (s *Sender) maybeFinishLocked() {
	if s.doneClosed || !s.finishedLocked() {
		return
	}
	s.doneClosed = true
	close(s.done)
	s.stopTimersLocked()
	s.cond.Broadcast()
}

// abortLocked records err, closes done and wakes everyone: the sender is
// giving up (e.g. the peer vanished and the FIN retry budget ran out, or
// a subflow socket was closed under us).
func (s *Sender) abortLocked(err error) {
	if s.err == nil {
		s.err = err
	}
	if !s.doneClosed {
		s.doneClosed = true
		close(s.done)
	}
	s.stopTimersLocked()
	s.cond.Broadcast()
}

// stopTimersLocked cancels every subflow's retransmission timer so a
// finished or aborted sender stops rescheduling (onRTO and armTimer are
// additionally gated on doneClosed for the timer that is mid-flight).
func (s *Sender) stopTimersLocked() {
	for _, sf := range s.subs {
		sf.timer.Stop()
		sf.timerOn = false
	}
}

// Cwnd returns subflow i's congestion window in segments.
func (s *Sender) Cwnd(i int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cc[i].Cwnd
}

// Stats is one coherent snapshot of the sender's counters, taken under
// a single lock acquisition so the fields are mutually consistent. It
// replaces the former multi-return Stats()/SchedStats()/Corrupted()
// trio, whose separate calls could interleave with progress and whose
// counters therefore never described one instant.
type Stats struct {
	SegsSent  int64 // data segments transmitted (incl. retransmissions)
	SegsRetx  int64 // subflow-level retransmissions
	Reinjects int64 // data reinjections onto other subflows after RTOs
	OppRetx   int64 // §6 opportunistic retransmissions of a blocking segment
	Penalties int64 // §6 penalization window halvings
	Corrupt   int64 // inbound frames dropped by the checksum
	// SubflowSent is the count of segments assigned to each subflow
	// (its subflow-sequence high-water mark), indexed by subflow ID.
	SubflowSent []int64
}

// Stats returns a coherent snapshot of every sender counter. OppRetx
// and Penalties stay 0 unless Config.SchedOpts enables the §6
// countermeasures.
func (s *Sender) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		SegsSent:    s.segsSent,
		SegsRetx:    s.segsRetx,
		Reinjects:   s.reinjects,
		OppRetx:     s.oppRetx,
		Penalties:   s.penalties,
		Corrupt:     s.corrupt.Load(),
		SubflowSent: make([]int64, len(s.subs)),
	}
	for i, sf := range s.subs {
		st.SubflowSent[i] = sf.sndNxt
	}
	return st
}

// popData returns the next data sequence to send, preferring
// reinjections; ok=false when nothing is sendable.
func (s *Sender) popDataLocked() (seq int64, fin bool, ok bool) {
	for len(s.reinj) > 0 {
		d := s.reinj[0]
		s.reinj = s.reinj[1:]
		if s.seg(d) != nil {
			return d, false, true
		}
	}
	if s.dataNxt == s.dataEnd {
		if s.closed && !s.finSent && s.dataNxt >= s.dataUna {
			return 0, true, true
		}
		return 0, false, false
	}
	if s.dataNxt >= s.edge {
		return 0, false, false // flow control
	}
	seq = s.dataNxt
	s.dataNxt++
	s.cond.Broadcast()
	return seq, false, true
}

// pumpLocked lets every subflow with window space transmit, in scheduler
// order — the paper's striping across subflows as windows open. When the
// shared receive buffer blocks further assignment, the §6
// countermeasures (if enabled) are applied before giving up.
func (s *Sender) pumpLocked() {
	if s.redundant {
		s.pumpRedundantLocked()
		return
	}
	for {
		sf := s.pickLocked()
		if sf == nil {
			return
		}
		seq, fin, ok := s.popDataLocked()
		if !ok {
			s.rbufCountermeasuresLocked()
			return
		}
		if fin {
			s.finSent = true
			s.sendFinLocked()
			return
		}
		sf.sendData(seq)
		if s.tracer != nil {
			s.tracer.SchedPick(s.traceID, int32(sf.id), seq)
		}
	}
}

// pumpRedundantLocked drives the redundant scheduler: every subflow
// keeps its own replay frontier (dupNxt) over the data stream and,
// window permitting, carries every data sequence itself — the subflow
// furthest ahead pulls new data, the others replay it. Frontiers skip
// data the receiver already holds (below dataUna), so a subflow that
// fell behind replays only the still-unacknowledged window, like
// Linux's mptcp_redundant; later copies count as duplicate data at the
// receiver and consume no shared buffer.
func (s *Sender) pumpRedundantLocked() {
	for progress := true; progress; {
		progress = false
		for i, sf := range s.subs {
			if !s.spaceLocked(sf) {
				continue
			}
			if s.dupNxt[i] < s.dataUna {
				s.dupNxt[i] = s.dataUna
			}
			if s.dupNxt[i] < s.dataNxt {
				if s.seg(s.dupNxt[i]) != nil {
					sf.sendData(s.dupNxt[i])
				}
				s.dupNxt[i]++
				progress = true
				continue
			}
			seq, fin, ok := s.popDataLocked()
			if !ok {
				continue
			}
			if fin {
				s.finSent = true
				s.sendFinLocked()
				return
			}
			sf.sendData(seq)
			if seq+1 > s.dupNxt[i] {
				s.dupNxt[i] = seq + 1
			}
			progress = true
		}
	}
}

// spaceLocked reports whether sf may carry a new segment: window room
// and not in fast recovery.
func (s *Sender) spaceLocked(sf *sendSubflow) bool {
	w := int64(s.cc[sf.id].Cwnd)
	if w < 1 {
		w = 1
	}
	return sf.sndNxt-sf.sndUna < w && !sf.inRec
}

// pickLocked dispatches the subflow choice to the configured scheduler
// over a scratch View slice, or nil when the scheduler declines.
func (s *Sender) pickLocked() *sendSubflow {
	for i, sf := range s.subs {
		s.views[i] = sched.View{
			Cwnd:     s.cc[i].Cwnd,
			Inflight: sf.sndNxt - sf.sndUna,
			SRTT:     sf.srtt.Seconds(),
			Sendable: !sf.inRec,
			Sent:     sf.sndNxt,
		}
	}
	i := s.sched.Pick(sched.Ctx{Window: s.edge - s.dataNxt}, s.views)
	if i < 0 {
		return nil
	}
	return s.subs[i]
}

// rbufCountermeasuresLocked applies the paper's §6 remedies when the
// shared receive buffer has blocked assignment (data queued but
// dataNxt at the flow-control edge): opportunistically retransmit the
// blocking segment — the data-level cumulative ack, parked on a slow
// subflow — on the fastest other subflow with window space (once per
// blocking segment), and halve the blocking subflow's congestion
// window, at most once per its RTT. No-ops unless Config.SchedOpts
// enables the countermeasures.
func (s *Sender) rbufCountermeasuresLocked() {
	if !s.cfg.SchedOpts.Any() || len(s.subs) < 2 {
		return
	}
	if (s.dataNxt == s.dataEnd && len(s.reinj) == 0) || s.dataNxt < s.edge {
		return // app-limited, not flow-control-blocked
	}
	if s.seg(s.dataUna) == nil {
		return // blocking segment already delivered; ACK in flight
	}
	// Gate before the blocker scan: while the connection stays blocked
	// on the same segment, every ACK re-enters here, and once the
	// opportunistic retransmission is spent and every penalty backoff is
	// still running there is nothing left to do this round trip.
	now := time.Now()
	needOpp := s.cfg.SchedOpts.OpportunisticRetx && s.oppSeq != s.dataUna
	needPen := false
	if s.cfg.SchedOpts.Penalize {
		for _, sf := range s.subs {
			if !now.Before(sf.nextPenalty) {
				needPen = true
				break
			}
		}
	}
	if !needOpp && !needPen {
		return
	}
	blocker := s.findBlockerLocked()
	if blocker == nil {
		return
	}
	if s.cfg.SchedOpts.Penalize && !now.Before(blocker.nextPenalty) {
		cw := &s.cc[blocker.id]
		if cw.Cwnd > 1 {
			cw.Cwnd /= 2
			if cw.Cwnd < 1 {
				cw.Cwnd = 1
			}
			cw.SSThresh = cw.Cwnd
			s.penalties++
			if s.tracer != nil {
				s.tracer.Penalty(s.traceID, int32(blocker.id), cw.Cwnd)
			}
		}
		d := blocker.srtt
		if d <= 0 {
			d = s.cfg.MinRTO
		}
		blocker.nextPenalty = now.Add(d)
	}
	if needOpp {
		for i, sf := range s.subs {
			s.views[i] = sched.View{
				Cwnd:     s.cc[i].Cwnd,
				Inflight: sf.sndNxt - sf.sndUna,
				SRTT:     sf.srtt.Seconds(),
				Sendable: !sf.inRec,
			}
		}
		if best := sched.PickMinRTT(s.views, blocker.id); best >= 0 {
			s.subs[best].sendData(s.dataUna)
			s.oppSeq = s.dataUna
			s.oppRetx++
			if s.tracer != nil {
				s.tracer.OppRetx(s.traceID, int32(best), s.dataUna)
			}
		}
	}
}

// findBlockerLocked returns the subflow holding the un-delivered
// segment the receive window is stuck on (dataSeq == dataUna,
// outstanding and not SACKed), or nil.
func (s *Sender) findBlockerLocked() *sendSubflow {
	for _, sf := range s.subs {
		for seq := sf.sndUna; seq < sf.sndNxt; seq++ {
			if m := sf.meta.at(seq); !m.sacked && m.dataSeq == s.dataUna {
				return sf
			}
		}
	}
	return nil
}

// seg returns the payload frame of a sent, not yet data-acknowledged
// sequence, or nil.
func (s *Sender) seg(d int64) *frame {
	if d < s.dataUna || d >= s.dataNxt {
		return nil
	}
	return *s.segs.at(d)
}

// seg returns the scoreboard entry of an outstanding subflow sequence,
// or nil.
func (sf *sendSubflow) seg(seq int64) *sentSeg {
	if seq < sf.sndUna || seq >= sf.sndNxt {
		return nil
	}
	return sf.meta.at(seq)
}

func (s *Sender) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// --- subflow send machinery (all called with s.mu held unless noted) ---

func (sf *sendSubflow) elapsedMicros() uint32 {
	return uint32(time.Since(sf.start) / time.Microsecond)
}

func (sf *sendSubflow) sendData(dataSeq int64) {
	s := sf.parent
	seq := sf.sndNxt
	sf.meta.put(sf.sndUna, seq, sentSeg{dataSeq: dataSeq})
	sf.sndNxt++
	sf.transmit(seq, false)
	s.segsSent++
}

func (sf *sendSubflow) transmit(seq int64, retx bool) {
	s := sf.parent
	m := sf.seg(seq)
	if m == nil {
		return
	}
	// Copy, never alias: the payload frame may be freed (and rewritten)
	// by the next data ACK while this transmission still sits in sendQ.
	w := getFrame()
	w.n = headerSize
	if p := s.seg(m.dataSeq); p != nil {
		w.n += copy(w.buf[headerSize:], p.buf[headerSize:p.n])
	}
	h := header{
		Type:    typeData,
		Subflow: uint16(sf.id),
		ConnID:  s.connID,
		Seq:     seq,
		DataSeq: m.dataSeq,
		Echo:    sf.elapsedMicros(),
		Plen:    uint16(w.n - headerSize),
	}
	h.marshal(w.buf[:])
	sealFrame(w.buf[:w.n])
	m.retx = m.retx || retx
	if retx {
		s.segsRetx++
		if s.tracer != nil {
			s.tracer.Retx(s.traceID, int32(sf.id), seq)
		}
	}
	// Arm only if no timer is pending: the RTO must track the oldest
	// outstanding segment, not the most recent transmission.
	if !sf.timerOn {
		sf.armTimer()
	}
	if !sf.queueWrite(w) {
		putFrame(w)
	}
}

// queueWrite hands f to the subflow's writer goroutine, preserving the
// transmission order decided under the lock, and reports whether the
// segment was queued. Called with s.mu held, so it must never block: if
// the writer has fallen sendQueueCap segments behind (a stalled socket),
// the segment is dropped exactly as a congested path would drop it —
// retransmission recovers it — rather than wedging every lock acquirer
// (including Wait's deadline check) behind a dead PacketConn.
func (sf *sendSubflow) queueWrite(f *frame) bool {
	select {
	case sf.sendQ <- f:
		return true
	default:
		sf.parent.logf("sf%d writer backlogged, dropping segment", sf.id)
		return false
	}
}

// writeLoop is the subflow's single writer: it drains the FIFO send
// queue so segments hit the socket in transmit order, and exits once the
// connection is done — flushing anything queued first, because the final
// FIN is queued in the same critical section that closes done and must
// still reach the wire. Every frame goes back to the pool once written.
func (sf *sendSubflow) writeLoop() {
	for {
		select {
		case f := <-sf.sendQ:
			sf.write(f)
		case <-sf.parent.done:
			for {
				select {
				case f := <-sf.sendQ:
					sf.write(f)
				default:
					return
				}
			}
		}
	}
}

// write puts one wire frame on the socket and frees it.
func (sf *sendSubflow) write(f *frame) {
	sf.conn.WriteTo(f.buf[:f.n], sf.remote) //nolint:errcheck // lossy path semantics
	putFrame(f)
}

// sendFinLocked broadcasts the FIN on every subflow and arms the retry
// chain. Broadcasting matters: the FIN is the one segment whose silent
// loss the data machinery cannot recover (the receiver would never see
// EOF), the retry chain stops as soon as the data stream is fully
// acknowledged, and a FIN bound to a single subflow dies with that
// path. Sending it on all subflows makes EOF delivery as reliable as
// the best live path; the receiver treats repeated FINs idempotently.
func (s *Sender) sendFinLocked() {
	for _, sf := range s.subs {
		sf.transmitFin()
	}
	// Retransmit the FIN (with exponential backoff) until everything is
	// acked. The chain is gated on done so it terminates as soon as the
	// stream completes, and a retry budget stops it rescheduling forever
	// when the peer is gone.
	delay := s.cfg.MinRTO << uint(s.finRetries)
	if delay > maxRTO || delay <= 0 {
		delay = maxRTO
	}
	s.finRetries++
	time.AfterFunc(delay, func() {
		select {
		case <-s.done:
			return
		default:
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.doneClosed || s.finishedLocked() {
			s.maybeFinishLocked()
			return
		}
		if s.finRetries > maxFinRetries {
			s.abortLocked(errors.New("mptcpnet: FIN unacknowledged after retries, giving up"))
			return
		}
		s.sendFinLocked()
	})
}

// transmitFin puts one FIN on this subflow's wire.
func (sf *sendSubflow) transmitFin() {
	s := sf.parent
	h := header{
		Type:    typeFin,
		Subflow: uint16(sf.id),
		ConnID:  s.connID,
		Aux:     s.dataNxt,
		Echo:    sf.elapsedMicros(),
	}
	f := getFrame()
	f.n = headerSize
	h.marshal(f.buf[:])
	sealFrame(f.buf[:f.n])
	if !sf.queueWrite(f) {
		// The writer is backlogged or already gone: bypass the queue
		// rather than drop the FIN (it carries no sequence-space
		// ordering constraint). Bounded: at most one such write per
		// subflow per retry tick.
		go sf.write(f)
	}
}

// readLoop consumes ACKs for one subflow. Runs unlocked; state updates
// take the connection lock.
func (sf *sendSubflow) readLoop() {
	buf := make([]byte, 2048)
	// A closed subflow socket means no ACK can ever arrive here again: if
	// the stream is not already finished, abort so the writer goroutine,
	// the FIN chain and the RTO timers are all released rather than
	// leaked with an abandoned sender.
	defer func() {
		s := sf.parent
		s.mu.Lock()
		if !s.doneClosed {
			s.abortLocked(fmt.Errorf("mptcpnet: subflow %d socket closed", sf.id))
		}
		s.mu.Unlock()
	}()
	for {
		n, _, err := sf.conn.ReadFrom(buf)
		if err != nil {
			return // socket closed
		}
		var h header
		if err := h.unmarshal(buf[:n]); err != nil {
			if errors.Is(err, errBadFrame) {
				sf.parent.corrupt.Add(1)
			}
			continue
		}
		if h.ConnID != sf.parent.connID {
			continue
		}
		if h.Type != typeAck {
			continue
		}
		sf.parent.handleAck(sf, &h)
	}
}

func (s *Sender) handleAck(sf *sendSubflow, h *header) {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Data-level bookkeeping (§6: explicit data ack + shared window).
	// Sequences beyond what was sent cannot be acknowledged: clamp, so a
	// bogus ACK can neither walk the rings out of range nor invert them.
	for dataAck := min(h.DataSeq, s.dataNxt); s.dataUna < dataAck; s.dataUna++ {
		slot := s.segs.at(s.dataUna)
		putFrame(*slot)
		*slot = nil
	}
	if e := h.DataSeq + int64(h.Window); e > s.edge {
		s.edge = e
	}

	// SACK scoreboard.
	newInfo := false
	if h.Flags&flagSack != 0 {
		if m := sf.seg(h.Aux); m != nil && !m.sacked {
			m.sacked = true
			newInfo = true
		}
	}

	ack := min(h.Seq, sf.sndNxt)
	switch {
	case ack > sf.sndUna:
		sf.rtoStreak = 0
		newly := ack - sf.sndUna
		// Karn's rule: an ACK that covers a retransmitted segment is
		// ambiguous (it may acknowledge either transmission), so it must
		// not feed the RTT estimator — an ambiguous sample corrupts
		// srtt/RTO and flows into OnRTTSample, poisoning delay-based
		// algorithms (wVegas baseRTT). The simulator transport suppresses
		// these via per-packet timestamps; here we check the retx marks.
		retxAcked := false
		for seq := sf.sndUna; seq < ack; seq++ {
			retxAcked = retxAcked || sf.meta.at(seq).retx
		}
		sf.sndUna = ack
		if !retxAcked {
			sf.sampleRTT(time.Duration(sf.elapsedMicros()-h.Echo) * time.Microsecond)
		}
		cc := &s.cc[sf.id]
		if sf.inRec && ack >= sf.recover {
			sf.inRec = false
			sf.dupSacks = 0
			if s.tracer != nil {
				s.tracer.SubflowState(s.traceID, int32(sf.id), "open")
			}
		}
		if !sf.inRec {
			for i := int64(0); i < newly; i++ {
				if cc.Cwnd < cc.SSThresh {
					cc.Cwnd++
				} else {
					cc.Cwnd += s.alg.Increase(s.cc, sf.id)
				}
			}
			if s.tracer != nil {
				s.tracer.CwndChange(s.traceID, int32(sf.id), cc.Cwnd)
			}
		}
		sf.armTimer()
	case ack == sf.sndUna && newInfo && !sf.inRec:
		sf.dupSacks++
		if sf.dupSacks >= 3 {
			s.fastRetransmit(sf)
		}
	}
	s.pumpLocked()
	s.maybeFinishLocked()
}

// allSubflowsTimedOutLocked reports whether every subflow has hit the
// consecutive-RTO give-up bound — the all-paths-dead terminal state.
func (s *Sender) allSubflowsTimedOutLocked() bool {
	for _, sf := range s.subs {
		if sf.rtoStreak < maxRTOStreak {
			return false
		}
	}
	return true
}

// fastRetransmit halves the window once and retransmits all unsacked
// segments below the highest sacked sequence.
func (s *Sender) fastRetransmit(sf *sendSubflow) {
	cc := &s.cc[sf.id]
	if s.lossObs != nil {
		s.lossObs.OnLoss(s.cc, sf.id)
	}
	cc.Cwnd = s.alg.Decrease(s.cc, sf.id)
	cc.SSThresh = cc.Cwnd
	if s.tracer != nil {
		s.tracer.Loss(s.traceID, int32(sf.id), "fast", sf.sndUna)
		s.tracer.CwndChange(s.traceID, int32(sf.id), cc.Cwnd)
		s.tracer.SubflowState(s.traceID, int32(sf.id), "recovery")
	}
	sf.inRec = true
	sf.recover = sf.sndNxt
	sf.dupSacks = 0
	high := sf.sndNxt - 1
	for high >= sf.sndUna && !sf.meta.at(high).sacked {
		high--
	}
	for seq := sf.sndUna; seq < high; seq++ {
		if m := sf.meta.at(seq); !m.sacked && !m.retx {
			sf.transmit(seq, true)
		}
	}
	s.logf("sf%d fast retransmit, cwnd=%.1f", sf.id, cc.Cwnd)
}

// onRTO collapses the window, retransmits the front and reinjects
// outstanding data onto the other subflows, in sequence order. It is the
// timer callback, and Stop cannot recall a callback already blocked on
// mu: one that lost the race with an ACK finds the timer disarmed or the
// deadline moved, and only re-arms for the remainder.
func (sf *sendSubflow) onRTO() {
	s := sf.parent
	s.mu.Lock()
	defer s.mu.Unlock()
	if !sf.timerOn {
		return
	}
	if d := time.Until(sf.deadline); d > 0 {
		sf.timer.Reset(d)
		return
	}
	sf.timerOn = false
	if s.doneClosed || sf.sndNxt == sf.sndUna {
		return // finished/aborted senders must not rearm
	}
	sf.rtoStreak++
	if s.allSubflowsTimedOutLocked() {
		s.abortLocked(errors.New("mptcpnet: every subflow timed out repeatedly with no progress, giving up"))
		return
	}
	cc := &s.cc[sf.id]
	if s.lossObs != nil {
		s.lossObs.OnLoss(s.cc, sf.id)
	}
	cc.SSThresh = s.alg.Decrease(s.cc, sf.id)
	if cc.SSThresh < 2 {
		cc.SSThresh = 2
	}
	cc.Cwnd = 1
	sf.inRec = false
	sf.dupSacks = 0
	if s.tracer != nil {
		s.tracer.Loss(s.traceID, int32(sf.id), "rto", sf.sndUna)
		s.tracer.CwndChange(s.traceID, int32(sf.id), cc.Cwnd)
	}
	for seq := sf.sndUna; seq < sf.sndNxt; seq++ {
		m := sf.meta.at(seq)
		if m.sacked {
			continue
		}
		// Earlier retransmissions are presumed lost too; clearing the
		// mark lets the next fast recovery retransmit them again.
		m.retx = false
		if len(s.subs) > 1 {
			s.reinj = append(s.reinj, m.dataSeq)
			s.reinjects++
		}
	}
	sf.transmit(sf.sndUna, true)
	sf.rto *= 2
	if sf.rto > maxRTO {
		sf.rto = maxRTO
	}
	sf.armTimer()
	s.pumpLocked()
	s.maybeFinishLocked()
}

func (sf *sendSubflow) sampleRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if sf.srtt == 0 {
		sf.srtt, sf.rttvar = rtt, rtt/2
	} else {
		diff := sf.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		sf.rttvar = (3*sf.rttvar + diff) / 4
		sf.srtt = (7*sf.srtt + rtt) / 8
	}
	sf.parent.cc[sf.id].SRTT = sf.srtt.Seconds()
	if obs := sf.parent.rttObs; obs != nil {
		obs.OnRTTSample(sf.parent.cc, sf.id, rtt.Seconds())
	}
	if tr := sf.parent.tracer; tr != nil {
		tr.RTTSample(sf.parent.traceID, int32(sf.id), rtt.Seconds())
	}
	rto := sf.srtt + 4*sf.rttvar
	if rto < sf.parent.cfg.MinRTO {
		rto = sf.parent.cfg.MinRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	sf.rto = rto
}

func (sf *sendSubflow) armTimer() {
	sf.timerOn = !sf.parent.doneClosed && sf.sndNxt != sf.sndUna
	if !sf.timerOn {
		sf.timer.Stop()
		return
	}
	sf.deadline = time.Now().Add(sf.rto)
	sf.timer.Reset(sf.rto)
}

var _ io.WriteCloser = (*Sender)(nil)
