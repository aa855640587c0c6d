// Package proto is the one implementation of the paper's §6 protocol,
// shared by the simulated endpoint (internal/transport) and the real-UDP
// one (internal/mptcpnet). Its parts are:
//
//   - separate sequence spaces: per-subflow sequence numbers for loss
//     detection, and connection-level data sequence numbers for stream
//     reassembly, carried on every data packet;
//   - explicit data acknowledgments carried on every ACK (the paper shows
//     inferring the data ack from subflow acks is unsound when ACKs
//     arrive out of order across subflows);
//   - a single shared receive buffer, its window advertised relative to
//     the data-level cumulative ack (per-subflow buffers can deadlock);
//   - data-level reinjection after a subflow timeout, and the
//     receive-buffer-blocking countermeasures (opportunistic
//     retransmission, subflow penalization).
//
// Each subflow runs NewReno-style machinery — slow start, SACK fast
// recovery with proportional rate reduction, an RFC 6298 retransmission
// timer with go-back-N repair — and delegates congestion-avoidance window
// arithmetic to a core.Algorithm and the placement of new data to a
// sched.Scheduler. Loss-recovery transmissions never go through the
// scheduler. Sequence numbers count packets, not bytes, and windows are
// maintained in packets, as the paper presents them.
//
// The package is sans-I/O: it owns no clock, timer, socket, goroutine,
// lock or random source. A shell feeds it events stamped with the shell's
// own clock (Sender.OnAck, OnRTO, OnPersist, Supply, Pump;
// Receiver.OnData, OnProbe, OnAckDelay, Consume) and performs the side
// effects it asks for through the Shell interface or its return values.
// After warm-up (rings and queues grown) no entry point allocates or
// hashes. A subflow's scoreboard is a Ring indexed by sequence number,
// sized from the initial window and doubled by what is outstanding; the
// receiver's out-of-order sets are bit rings, and a subflow sequence 1<<16
// or more above the cumulative ack is refused, which bounds a subflow's
// bit ring at 8 KiB. DESIGN.md §9 has the ordering contract.
package proto

import (
	"errors"
	"math"

	"mptcp/internal/core"
	"mptcp/internal/sched"
	"mptcp/internal/trace"
)

// Time is an instant or duration in nanoseconds on the shell's clock:
// simulated time for transport, monotonic wall time for mptcpnet.
type Time int64

// Duration units.
const (
	Millisecond Time = 1e6
	Second           = 1000 * Millisecond
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Infinite marks an unlimited data supply (a long-lived flow).
const Infinite int64 = -1

const (
	initialRTO = 1 * Second // RFC 6298 §2.1
	// MaxRTO bounds the retransmission timer, backoff included (RFC 6298
	// §2.5 allows a maximum of at least 60 seconds).
	MaxRTO     = 60 * Second
	maxBackoff = 10
	// persistInterval paces zero-window probes.
	persistInterval = 200 * Millisecond
)

// deadMinRTOs is the give-up bound, the only one, in minimum RTOs: when
// EVERY subflow has gone on timing out with no cumulative-ACK progress
// for deadMinRTOs × MinRTO since its first timeout, the connection is
// dead end to end (all radios gone and staying gone) and the sender
// aborts with an error rather than retransmitting forever — the
// transfers-complete-or-fail invariant the chaos harness asserts. A
// single live subflow ends its own streak on every ACK, so no amount of
// chaos on the other paths trips this while one path still delivers,
// and an idle connection's first timeout starts a streak rather than
// ending one. 254 × MinRTO is what the seven doublings after a first
// timeout at the minimum RTO take (51 s at the default 200 ms): patient
// enough to ride out any plausible congestion event. The bound is time,
// not a count of timeouts, so it holds whether or not a subflow ever
// took an RTT sample — eight timeouts from RFC 6298's initial 1 s RTO
// would take ≈ 183 s. The sender gives up at the first timeout past the
// bound: within one more backed-off RTO of it.
const deadMinRTOs = 254

// ErrAllPathsDead is the error Completed reports when the sender gave up
// under the deadMinRTOs bound.
var ErrAllPathsDead = errors.New("proto: every subflow timed out repeatedly with no progress, giving up")

// Shell performs the sender's side effects. Every call is made
// synchronously from inside a Sender entry point, in the order the
// protocol decides them.
type Shell interface {
	// Emit puts subflow sequence seq of subflow sub, carrying dataSeq,
	// on the wire; retx marks a subflow-level retransmission.
	Emit(sub int, seq, dataSeq int64, retx bool)
	// Probe sends a zero-window probe on sub: it occupies no sequence
	// space and only elicits an ACK carrying the current window.
	Probe(sub int)
	// ArmRTO (re)arms sub's retransmission timer to fire d from now
	// (call OnRTO then); StopRTO cancels it.
	ArmRTO(sub int, d Time)
	StopRTO(sub int)
	// ArmPersist and StopPersist do the same for the connection's one
	// persist timer (OnPersist).
	ArmPersist(d Time)
	StopPersist()
	// Completed reports the end of the sender's life: err is nil when the
	// final data packet of a finished supply was cumulatively
	// acknowledged, and ErrAllPathsDead when every subflow timed out past
	// the give-up bound. The sender has already stopped itself; the shell
	// may Reset it for a new life before returning.
	Completed(err error)
}

// SenderConfig parameterises one life of a Sender.
type SenderConfig struct {
	// Subflows is the number of subflows, at least one.
	Subflows int
	// Alg is the congestion-avoidance algorithm. Defaults to
	// &core.MPTCP{} for multiple subflows and core.Regular{} for one.
	Alg core.Algorithm
	// Sched assigns new data segments to subflows; required.
	Sched sched.Scheduler
	// SchedOpts enables the §6 receive-buffer-blocking countermeasures.
	SchedOpts sched.Options
	// Total is the number of data packets supplied so far: Infinite for
	// a long-lived flow, or a count the shell may raise with Supply.
	Total int64
	// Window is the flow-control edge assumed until the first ACK
	// advertises the receiver's real shared-buffer window. It also sizes
	// each subflow's empty scoreboard ring: rounded up to a power of two
	// within [16, 256] slots.
	Window int64
	// InitialCwnd is the initial congestion window in packets
	// (default 2, as in Linux of the paper's era).
	InitialCwnd float64
	// MinRTO is the lower bound on the retransmission timeout
	// (default 200 ms, Linux's RTO_MIN).
	MinRTO Time
	// DisableReinject turns off data-level reinjection after an RTO.
	DisableReinject bool
	// Tracer, when non-nil, records the protocol events.
	Tracer *trace.Tracer
}

// Counters are the sender's connection-level event counts.
type Counters struct {
	// OppRetx counts opportunistic retransmissions and Penalties
	// subflow-penalization window halvings (both 0 unless SchedOpts
	// enables the countermeasures).
	OppRetx   int64
	Penalties int64
	// Reinjects counts data sequences queued for reinjection after RTOs.
	Reinjects int64
}

// Sender is the sending half of a (multipath) connection. The zero value
// becomes usable with Reset.
type Sender struct {
	Counters
	sh  Shell
	cfg SenderConfig
	// Optional algorithm hooks, resolved once so the per-ACK path pays
	// no type assertion.
	rttObs  core.RTTObserver
	lossObs core.LossObserver
	traceID int32

	subs []subflow
	cc   []core.Subflow
	// views is the scratch slate handed to the scheduler, refreshed in
	// place each pump.
	views []sched.View
	// dupNxt is the redundant scheduler's per-subflow replay frontier:
	// the next data sequence subflow i should (re)carry. Nil unless the
	// scheduler is sched.Redundant.
	dupNxt []int64
	// oppRetxSeq remembers the last data sequence opportunistically
	// retransmitted so each blocking segment is re-sent at most once.
	oppRetxSeq int64

	dataNxt int64 // next new data sequence number to assign
	dataUna int64 // cumulative data-level acknowledgment
	edge    int64 // highest permitted dataSeq+1 (flow control edge)
	limit   int64 // data sequences supplied by the application, or Infinite
	final   bool  // the supply will not grow: completion is limit acknowledged
	// reinjectQ holds data sequences awaiting reinjection from
	// reinjectQ[reinjectHead] on; it rewinds when it empties, so RTO bursts
	// reuse one array.
	reinjectQ    []int64
	reinjectHead int
	done         bool
	// life counts Resets, so an entry point can tell that a shell
	// callback rebuilt the sender under it.
	life uint64

	// Zero-window persist state: when the advertised window closes and
	// nothing is in flight, the sender probes periodically so a lost
	// window update cannot deadlock the connection.
	fcBlocked    bool
	persistArmed bool
}

// Reset (re)builds the sender for a new life driving sh. The subflows'
// grown scoreboard rings and the scratch slices of a previous life are
// reused when the subflow count is unchanged.
func (s *Sender) Reset(sh Shell, cfg SenderConfig) {
	n := cfg.Subflows
	if cfg.Alg == nil {
		if n == 1 {
			cfg.Alg = core.Regular{}
		} else {
			cfg.Alg = &core.MPTCP{}
		}
	}
	if cfg.InitialCwnd <= 0 {
		cfg.InitialCwnd = 2
	}
	if cfg.MinRTO <= 0 {
		cfg.MinRTO = 200 * Millisecond
	}
	subs, ccs, views, dupNxt := s.subs, s.cc, s.views, s.dupNxt
	if len(subs) != n {
		subs, ccs, views, dupNxt = make([]subflow, n), make([]core.Subflow, n), make([]sched.View, n), nil
	}
	*s = Sender{
		sh: sh, cfg: cfg, subs: subs, cc: ccs, views: views,
		traceID:    cfg.Tracer.ConnID(), // nil-safe: -1 when tracing is off
		oppRetxSeq: -1,
		edge:       cfg.Window,
		limit:      cfg.Total,
		reinjectQ:  s.reinjectQ[:0],
		life:       s.life + 1,
	}
	s.rttObs, _ = cfg.Alg.(core.RTTObserver)
	s.lossObs, _ = cfg.Alg.(core.LossObserver)
	if _, ok := cfg.Sched.(sched.Redundant); ok {
		if dupNxt == nil {
			dupNxt = make([]int64, n)
		}
		clear(dupNxt)
		s.dupNxt = dupNxt
	}
	for i := range subs {
		subs[i].reset(cfg.Window)
		ccs[i] = core.Subflow{Cwnd: cfg.InitialCwnd, SSThresh: math.Inf(1)}
	}
}

// Alg returns the congestion control algorithm driving the connection.
func (s *Sender) Alg() core.Algorithm { return s.cfg.Alg }

// Done reports whether the sender has completed or been stopped.
func (s *Sender) Done() bool { return s.done }

// Cwnd returns subflow i's congestion window in packets.
func (s *Sender) Cwnd(i int) float64 { return s.cc[i].Cwnd }

// SRTT returns subflow i's smoothed RTT estimate (0: no sample yet).
func (s *Sender) SRTT(i int) Time { return s.subs[i].srtt }

// Stats returns subflow i's live counters.
func (s *Sender) Stats(i int) *SubflowStats { return &s.subs[i].SubflowStats }

// DataNxt returns the next new data sequence number to be assigned.
func (s *Sender) DataNxt() int64 { return s.dataNxt }

// DataUna returns the data-level cumulative acknowledgment.
func (s *Sender) DataUna() int64 { return s.dataUna }

// Edge returns the flow-control edge: one past the highest data sequence
// the receiver's window admits (SenderConfig.Window before the first ACK).
func (s *Sender) Edge() int64 { return s.edge }

// Supply raises the number of data packets the application has handed
// over to limit and pumps.
func (s *Sender) Supply(now Time, limit int64) {
	s.limit = limit
	s.Pump(now)
}

// Finish declares the supply final: the sender completes once everything
// supplied is cumulatively acknowledged (at once, if it already is).
func (s *Sender) Finish() {
	s.final = true
	s.checkComplete()
}

// Stop terminates the sender immediately: no more transmissions, all
// timers cancelled. Late ACKs and timer fires become no-ops.
func (s *Sender) Stop() {
	s.done = true
	// Clear the flow-control latch too, so the state matches the stopped
	// timers: a late ACK's window update makes no further shell call.
	s.fcBlocked, s.persistArmed = false, false
	s.sh.StopPersist()
	for i := range s.subs {
		s.subs[i].rtoArmed = false
		s.sh.StopRTO(i)
	}
}

func (s *Sender) checkComplete() {
	if s.final && !s.done && s.dataUna >= s.limit {
		s.Stop()
		s.sh.Completed(nil)
	}
}

// popData hands out the next data sequence number to transmit,
// preferring reinjections. ok is false when the connection is app-limited
// or flow-control limited.
func (s *Sender) popData() (seq int64, ok bool) {
	for s.reinjectHead < len(s.reinjectQ) {
		seq = s.reinjectQ[s.reinjectHead]
		s.reinjectHead++
		if s.reinjectHead == len(s.reinjectQ) {
			s.reinjectQ, s.reinjectHead = s.reinjectQ[:0], 0
		}
		if seq >= s.dataUna {
			return seq, true
		}
	}
	if s.limit != Infinite && s.dataNxt >= s.limit {
		return 0, false
	}
	if s.dataNxt >= s.edge {
		s.fcBlocked = true // flow control (§6): respect the shared buffer
		return 0, false
	}
	s.dataNxt++
	return s.dataNxt - 1, true
}

// onDataAck processes the explicit data-level acknowledgment and window
// carried on an ACK (§6). Data the sender never assigned cannot be
// acknowledged: a bogus ACK is clamped.
func (s *Sender) onDataAck(dataAck, wnd int64) {
	if a := min(dataAck, s.dataNxt); a > s.dataUna {
		s.dataUna = a
	}
	// The edge is monotone: old ACKs cannot shrink it.
	if e := dataAck + wnd; e > s.edge {
		s.edge = e
		if s.fcBlocked {
			s.fcBlocked, s.persistArmed = false, false
			s.sh.StopPersist()
		}
	}
	s.checkComplete()
}

// Pump drives transmission: loss-recovery repairs first (per subflow, in
// configuration order — they are not scheduling decisions), then new data
// assigned by the configured scheduler, then, if the shared receive
// buffer blocked the sender, the §6 countermeasures. With the FirstFit
// scheduler this reproduces the paper's "stripes packets across these
// subflows as space in the subflow windows becomes available".
func (s *Sender) Pump(now Time) {
	if s.done {
		return
	}
	for i := range s.subs {
		s.sendRepairs(i)
	}
	if s.dupNxt != nil {
		s.scheduleRedundant()
	} else {
		s.schedule()
	}
	if s.fcBlocked {
		s.rbufCountermeasures(now)
		if !s.persistArmed && s.idle() {
			s.armPersist()
		}
	}
}

// fillViews refreshes the scheduler's slate from the subflows.
func (s *Sender) fillViews() {
	for i := range s.subs {
		sf := &s.subs[i]
		s.views[i] = sched.View{
			Cwnd:     s.cc[i].Cwnd,
			Inflight: sf.outstanding(),
			SRTT:     sf.srtt.Seconds(),
			Sendable: !sf.inRec && !sf.inRepair(),
			Sent:     sf.sndNxt,
		}
	}
}

// schedule assigns new data to subflows, one segment per scheduler Pick,
// until the scheduler declines or the data supply (application or flow
// control) runs dry.
func (s *Sender) schedule() {
	s.fillViews()
	for {
		// The flow-control headroom shrinks as the loop assigns new
		// data, so the Ctx is rebuilt per pick — a blocking-aware
		// scheduler (BLEST) must see the headroom left now, not the
		// pump-entry snapshot.
		i := s.cfg.Sched.Pick(sched.Ctx{Window: s.edge - s.dataNxt}, s.views)
		if i < 0 {
			return
		}
		dataSeq, ok := s.sendNew(i)
		if !ok {
			return
		}
		s.cfg.Tracer.SchedPick(s.traceID, int32(i), dataSeq)
		s.views[i].Inflight++
		s.views[i].Sent++
	}
}

// scheduleRedundant drives sched.Redundant: every subflow keeps
// its own replay frontier (dupNxt) over the data stream and, window
// permitting, carries every data sequence itself — the subflow that is
// furthest ahead pulls new data, the others replay it. Frontiers skip
// data the receiver already holds (below dataUna), so a subflow that
// fell behind replays only the still-unacknowledged window, like
// Linux's mptcp_redundant. The first copy to arrive delivers; later
// copies count as duplicate data and consume no receive buffer.
func (s *Sender) scheduleRedundant() {
	for progress := true; progress; {
		progress = false
		for i := range s.subs {
			sf := &s.subs[i]
			if sf.inRec || sf.inRepair() || sf.outstanding() >= s.window(i) {
				continue
			}
			s.dupNxt[i] = max(s.dupNxt[i], s.dataUna)
			if s.dupNxt[i] < s.dataNxt {
				s.sendMapped(i, s.dupNxt[i])
				s.dupNxt[i]++
				progress = true
				continue
			}
			dataSeq, ok := s.sendNew(i)
			if !ok {
				continue
			}
			s.dupNxt[i] = max(s.dupNxt[i], dataSeq+1)
			progress = true
		}
	}
}

// rbufCountermeasures applies the paper's §6 remedies when the shared
// receive buffer has blocked the sender: the segment everyone is waiting
// on is the data-level cumulative ack (dataUna), typically parked on a
// slow subflow while faster ones drained. Opportunistic retransmission
// re-sends that segment on the fastest other subflow with window space
// (once per blocking segment); penalization halves the blocking
// subflow's congestion window (at most once per its RTT) so it stops
// re-filling the buffer. Both are off unless SchedOpts enables them.
func (s *Sender) rbufCountermeasures(now Time) {
	opts := s.cfg.SchedOpts
	if !opts.Any() || len(s.subs) < 2 {
		return
	}
	// Gate before the blocker scan: while the connection stays blocked
	// on the same segment, every ACK re-enters here, and once the
	// opportunistic retransmission is spent and every penalty backoff
	// is still running there is nothing left to do this round trip.
	needOpp := opts.OpportunisticRetx && s.oppRetxSeq != s.dataUna
	needPen := false
	if opts.Penalize {
		for i := range s.subs {
			if now >= s.subs[i].nextPenalty {
				needPen = true
				break
			}
		}
	}
	if !needOpp && !needPen {
		return
	}
	blocker := s.findBlocker()
	if blocker < 0 {
		return
	}
	if opts.Penalize {
		s.penalize(now, blocker)
	}
	if needOpp {
		s.fillViews()
		if best := sched.PickMinRTT(s.views, blocker); best >= 0 {
			s.sendMapped(best, s.dataUna)
			s.oppRetxSeq = s.dataUna
			s.OppRetx++
			s.cfg.Tracer.OppRetx(s.traceID, int32(best), s.dataUna)
		}
	}
}

// penalize halves the congestion window of the subflow blocking the
// receive buffer, backoff-limited to once per smoothed RTT (MinRTO when
// unmeasured) so repeated blocking events within one round trip do not
// collapse the window to nothing.
func (s *Sender) penalize(now Time, i int) {
	sf := &s.subs[i]
	if now < sf.nextPenalty {
		return
	}
	if cw := &s.cc[i]; cw.Cwnd > 1 {
		cw.Cwnd = max(cw.Cwnd/2, 1)
		cw.SSThresh = cw.Cwnd
		s.Penalties++
		s.cfg.Tracer.Penalty(s.traceID, int32(i), cw.Cwnd)
	}
	d := sf.srtt
	if d <= 0 {
		d = s.cfg.MinRTO
	}
	sf.nextPenalty = now + d
}

// findBlocker returns the subflow holding the un-delivered segment the
// receive window is stuck on (dataSeq == dataUna, outstanding and not
// SACKed), or -1. The scan is bounded by the subflows' outstanding data
// and runs only on blocking events, which the countermeasures rate-
// limit.
func (s *Sender) findBlocker() int {
	for i := range s.subs {
		sf := &s.subs[i]
		for seq := sf.sndUna; seq < sf.sndNxt; seq++ {
			if m := sf.meta.At(seq); !m.sacked && m.dataSeq == s.dataUna {
				return i
			}
		}
	}
	return -1
}

// idle reports whether no subflow has data in flight (so no ACK will
// arrive to reopen a closed window on its own).
func (s *Sender) idle() bool {
	for i := range s.subs {
		if s.subs[i].outstanding() > 0 {
			return false
		}
	}
	return true
}

func (s *Sender) armPersist() {
	s.persistArmed = true
	s.sh.ArmPersist(persistInterval)
}

// OnPersist is the persist timer: while flow control still blocks the
// sender it probes every subflow (TCP's zero-window probe), guarding
// against a lost window update deadlocking the connection.
func (s *Sender) OnPersist(now Time) {
	s.persistArmed = false
	if s.done || !s.fcBlocked {
		return
	}
	for i := range s.subs {
		s.sh.Probe(i)
	}
	s.armPersist()
}
