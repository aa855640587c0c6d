package proto

import "slices"

// SubflowStats are one subflow's transmission counters.
type SubflowStats struct {
	PktsSent int64 // data packets transmitted (incl. retransmissions)
	PktsRetx int64 // subflow-level retransmissions
	RTOs     int64 // retransmission timeouts
	FastRetx int64 // fast-retransmit (recovery entry) events
}

// subflow is the sender-side state machine of one subflow: SACK-based
// loss recovery with proportional rate reduction and an RFC 6298
// retransmission timer over the subflow sequence space, with congestion-
// avoidance increments delegated to the connection's coupled algorithm.
// (The paper's Linux implementation inherits SACK recovery from the
// kernel stack; the receiver SACKs every out-of-order packet
// individually, so the scoreboard is exact.)
type subflow struct {
	SubflowStats

	// Subflow sequence space, in packets.
	sndNxt int64
	sndUna int64

	// meta maps outstanding subflow sequence numbers to their data-level
	// mapping and scoreboard state. It starts at the sender's initial
	// window (see reset) and grows with what is actually outstanding.
	meta Ring[pktMeta]

	// Fast-recovery state (SACK + conservation/PRR-style): on entry the
	// window is halved once; every subsequent arriving ACK permits one
	// transmission after the pipe has drained by `debt` packets.
	// Transmission candidates are unsacked holes below `recover` first,
	// then new data.
	dupAcks int64
	inRec   bool
	recover int64
	rtxNxt  int64
	debt    int64

	// Post-RTO go-back-N repair: sequence numbers in [repairNxt,
	// repairEnd) are presumed lost and retransmitted, window permitting,
	// before any new data; sacked packets are skipped. Sequence numbers
	// are never rolled back or reused, so each sequence number's data
	// mapping is immutable.
	repairNxt int64
	repairEnd int64

	// RFC 6298 retransmission timer. backoff counts consecutive
	// timeouts since the last cumulative-ACK progress; the timer runs at
	// rto << backoff. stalledSince is the first of those timeouts, when
	// backoff > 0 (see deadMinRTOs). rtoArmed mirrors the shell's timer.
	srtt, rttvar, rto Time
	backoff           uint
	stalledSince      Time
	rtoArmed          bool

	// nextPenalty rate-limits receive-buffer penalization (§6) to once
	// per RTT on this subflow.
	nextPenalty Time
}

// pktMeta is the scoreboard entry of one outstanding packet. RTT comes
// from the timestamp the ACK echoes, so no send time is kept.
type pktMeta struct {
	dataSeq int64
	retx    bool
	sacked  bool
}

// reset returns the subflow to its initial state. An empty meta ring is
// sized from the configured initial window, rounded up to a power of two
// within [16, 256]: the shared receive buffer bounds what a subflow
// usually has outstanding, 256 slots are what a long-lived flow grows to
// anyway, and the ring still doubles on demand. A used ring keeps its
// grown size and its stale entries: a slot is read only for a sequence in
// [sndUna, sndNxt), and sendMapped writes it as sndNxt passes it.
func (sf *subflow) reset(window int64) {
	meta := sf.meta
	meta.Size(min(max(window, 16), 256))
	*sf = subflow{meta: meta, rto: initialRTO}
}

// outstanding is the number of unacknowledged packets in flight.
func (sf *subflow) outstanding() int64 { return sf.sndNxt - sf.sndUna }

func (sf *subflow) inRepair() bool { return sf.repairEnd > sf.sndUna }

// window is subflow i's effective congestion window in whole packets.
func (s *Sender) window(i int) int64 { return max(int64(s.cc[i].Cwnd), 1) }

// sendRepairs retransmits subflow i's post-RTO repair backlog, window
// permitting: presumed-lost packets are resent (same sequence numbers,
// same data mapping) before the subflow carries any new data. No-op
// outside repair. New data is assigned by the scheduler, which never
// selects a subflow in repair or fast recovery; recovery transmissions
// are ACK-clocked (see recoveryAck), not window-driven.
func (s *Sender) sendRepairs(i int) {
	sf := &s.subs[i]
	for sf.repairNxt < sf.repairEnd && sf.repairNxt-sf.sndUna < s.window(i) {
		seq := sf.repairNxt
		sf.repairNxt++
		if sf.meta.At(seq).sacked {
			continue // receiver already has it
		}
		s.transmit(i, seq, true)
	}
}

// sendNew transmits one packet of new connection data on subflow i,
// returning the data sequence it carried and whether any was available.
func (s *Sender) sendNew(i int) (int64, bool) {
	dataSeq, ok := s.popData()
	if ok {
		s.sendMapped(i, dataSeq)
	}
	return dataSeq, ok
}

// sendMapped transmits dataSeq on subflow i under a fresh subflow
// sequence number. Besides sendNew, the redundant scheduler's duplicates
// and the opportunistic retransmission of a receive-buffer-blocking
// segment go through here: the receiver tolerates duplicate data (it
// consumes no buffer), so re-mapping an already-sent dataSeq is safe.
func (s *Sender) sendMapped(i int, dataSeq int64) {
	sf := &s.subs[i]
	seq := sf.sndNxt
	sf.sndNxt++
	sf.meta.Put(sf.sndUna, seq, pktMeta{dataSeq: dataSeq})
	s.transmit(i, seq, false)
}

// transmit hands subflow sequence seq to the shell. The scoreboard entry,
// the counters, the trace record and an idle retransmission timer are all
// settled first, so the shell's Emit is the last side effect of every
// transmission (DESIGN.md §9: this order keeps the simulator's event
// sequence numbers what they always were).
func (s *Sender) transmit(i int, seq int64, retx bool) {
	sf := &s.subs[i]
	m := sf.meta.At(seq)
	m.retx = m.retx || retx
	sf.PktsSent++
	if retx {
		sf.PktsRetx++
		s.cfg.Tracer.Retx(s.traceID, int32(i), seq)
	}
	// Arm only if no timer is pending: the RTO must track the oldest
	// outstanding packet, not the most recent transmission.
	if !sf.rtoArmed {
		s.armRTO(i)
	}
	s.sh.Emit(i, seq, m.dataSeq, retx)
}

// Ack is one acknowledgment as the shell decoded it.
type Ack struct {
	Sub     int   // subflow it arrived on
	Seq     int64 // cumulative subflow acknowledgment
	DataAck int64 // explicit data-level cumulative acknowledgment (§6)
	Window  int64 // shared receive window, relative to DataAck
	Sack    int64 // out-of-order subflow sequence that elicited it, or -1
	// RTT is now minus the timestamp the ACK echoes — the timestamp of
	// the very transmission that elicited it — or <= 0 for none.
	RTT Time
}

// OnAck consumes an acknowledgment and pumps.
func (s *Sender) OnAck(now Time, a Ack) {
	// onDataAck may complete the connection, and the shell's Completed
	// may Reset this very sender for a new life before returning here.
	// The rest of this ACK belongs to the finished life: applying its
	// subflow cumulative ack to the new one would push sndUna past
	// sndNxt.
	life := s.life
	s.onDataAck(a.DataAck, a.Window)
	if s.done || s.life != life {
		return
	}
	sf := &s.subs[a.Sub]
	// An ACK is a countable duplicate only if it conveys new SACK
	// information (RFC 6675): pure duplicate arrivals — e.g. echoes of
	// our own spurious retransmissions — must not drive loss detection.
	newInfo := false
	if a.Sack >= sf.sndUna && a.Sack < sf.sndNxt {
		if m := sf.meta.At(a.Sack); !m.sacked {
			m.sacked = true
			newInfo = true
		}
	}
	// A packet never sent cannot be acknowledged: clamp, so a bogus ACK
	// cannot invert sndUna <= sndNxt.
	switch ack := min(a.Seq, sf.sndNxt); {
	case ack > sf.sndUna:
		s.onNewAck(a.Sub, ack, a.RTT)
	case ack == sf.sndUna && sf.outstanding() > 0 && newInfo:
		s.onDupAck(a.Sub)
	}
	s.Pump(now)
}

func (s *Sender) onNewAck(i int, ack int64, rtt Time) {
	sf := &s.subs[i]
	newlyAcked := ack - sf.sndUna
	sf.sndUna = ack
	sf.backoff = 0
	s.sampleRTT(i, rtt)

	if sf.repairEnd > 0 {
		sf.repairNxt = max(sf.repairNxt, sf.sndUna)
		if sf.sndUna >= sf.repairEnd {
			sf.repairEnd, sf.repairNxt = 0, 0
		}
	}

	cw := &s.cc[i]
	switch {
	case sf.inRec && ack >= sf.recover:
		// Full ACK: recovery complete.
		sf.inRec = false
		sf.dupAcks = 0
		sf.debt = 0
		s.cfg.Tracer.SubflowState(s.traceID, int32(i), "open")
	case sf.inRec:
		s.recoveryAck(i, newlyAcked)
	default:
		sf.dupAcks = 0
		for n := int64(0); n < newlyAcked; n++ {
			if cw.Cwnd < cw.SSThresh {
				cw.Cwnd++ // slow start
			} else {
				cw.Cwnd += s.cfg.Alg.Increase(s.cc, i)
			}
		}
		s.cfg.Tracer.CwndChange(s.traceID, int32(i), cw.Cwnd)
	}
	s.armRTO(i)
}

func (s *Sender) onDupAck(i int) {
	sf := &s.subs[i]
	sf.dupAcks++
	if sf.inRepair() {
		return // the timeout repair already handles everything
	}
	if sf.inRec {
		s.recoveryAck(i, 1)
		return
	}
	if sf.dupAcks != 3 {
		return
	}
	sf.FastRetx++
	cw := &s.cc[i]
	pipe := sf.outstanding()
	if s.lossObs != nil {
		s.lossObs.OnLoss(s.cc, i)
	}
	cw.Cwnd = s.cfg.Alg.Decrease(s.cc, i)
	cw.SSThresh = cw.Cwnd
	s.cfg.Tracer.Loss(s.traceID, int32(i), "fast", sf.sndUna)
	s.cfg.Tracer.CwndChange(s.traceID, int32(i), cw.Cwnd)
	s.cfg.Tracer.SubflowState(s.traceID, int32(i), "recovery")
	sf.inRec = true
	sf.recover = sf.sndNxt
	sf.rtxNxt = sf.sndUna
	// Drain the pipe down to the new window, then clock one
	// transmission out per ACK in (conservation / PRR-style).
	sf.debt = max(pipe-int64(cw.Cwnd), 0)
	s.retransmitHole(i) // first retransmission goes out immediately
}

// recoveryAck processes n arriving ACKs during fast recovery: each one
// signals a packet has left the network, permitting one transmission once
// the halving debt is paid.
func (s *Sender) recoveryAck(i int, n int64) {
	sf := &s.subs[i]
	for ; n > 0; n-- {
		if sf.debt > 0 {
			sf.debt--
			continue
		}
		if !s.retransmitHole(i) {
			// ACK-clocked recovery transmission: new data bypasses the
			// scheduler because the clocking, not a policy choice,
			// decides when this subflow may transmit.
			s.sendNew(i)
		}
	}
}

// retransmitHole retransmits the first unsacked, not-yet-retransmitted
// hole below the recovery point. It reports whether a retransmission was
// sent.
func (s *Sender) retransmitHole(i int) bool {
	sf := &s.subs[i]
	seq := max(sf.rtxNxt, sf.sndUna)
	for ; seq < sf.recover; seq++ {
		if m := sf.meta.At(seq); m.sacked || m.retx {
			continue
		}
		sf.rtxNxt = seq + 1
		s.transmit(i, seq, true)
		return true
	}
	sf.rtxNxt = seq
	return false
}

// OnRTO is subflow i's retransmission timeout: collapse to one packet, go
// back to slow start, retransmit outstanding holes window-paced and back
// the timer off. Outstanding data becomes eligible for reinjection on the
// other subflows, so a dead path cannot strand the connection (§5
// mobility, §6). It does not pump: reinjections leave with the next pump.
// If every subflow has now been timing out past the give-up bound, the
// sender stops before it arms or emits anything and reports
// ErrAllPathsDead through Completed.
func (s *Sender) OnRTO(now Time, i int) {
	sf := &s.subs[i]
	sf.rtoArmed = false
	if sf.outstanding() == 0 || s.done {
		return
	}
	sf.RTOs++
	if sf.backoff == 0 {
		sf.stalledSince = now
	}
	if sf.backoff < maxBackoff {
		sf.backoff++
	}
	if s.allPathsDead(now) {
		s.Stop()
		s.sh.Completed(ErrAllPathsDead)
		return
	}
	cw := &s.cc[i]
	if s.lossObs != nil {
		s.lossObs.OnLoss(s.cc, i)
	}
	cw.SSThresh = max(s.cfg.Alg.Decrease(s.cc, i), 2)
	cw.Cwnd = 1
	sf.inRec = false
	sf.dupAcks = 0
	sf.debt = 0
	s.cfg.Tracer.Loss(s.traceID, int32(i), "rto", sf.sndUna)
	s.cfg.Tracer.CwndChange(s.traceID, int32(i), cw.Cwnd)
	s.cfg.Tracer.SubflowState(s.traceID, int32(i), "repair")

	// Go-back-N repair: everything outstanding and unsacked is presumed
	// lost, including earlier recovery retransmissions, and — in
	// ascending data-sequence order — reinjected. The queue grows once,
	// by at most the outstanding count, not by doubling from empty.
	reinject := len(s.subs) > 1 && !s.cfg.DisableReinject
	if reinject {
		s.reinjectQ = slices.Grow(s.reinjectQ, int(sf.outstanding()))
	}
	for seq := sf.sndUna; seq < sf.sndNxt; seq++ {
		m := sf.meta.At(seq)
		m.retx = false
		if reinject && !m.sacked && m.dataSeq >= s.dataUna {
			s.reinjectQ = append(s.reinjectQ, m.dataSeq)
			s.Reinjects++
		}
	}
	sf.repairNxt = sf.sndUna
	sf.repairEnd = sf.sndNxt
	s.armRTO(i)
	s.sendRepairs(i)
}

// allPathsDead reports whether every subflow has been timing out for the
// give-up bound: the all-paths-dead terminal state.
func (s *Sender) allPathsDead(now Time) bool {
	for i := range s.subs {
		if sf := &s.subs[i]; sf.backoff == 0 || now-sf.stalledSince < deadMinRTOs*s.cfg.MinRTO {
			return false
		}
	}
	return true
}

// sampleRTT folds one RTT measurement into subflow i's RFC 6298
// estimator.
func (s *Sender) sampleRTT(i int, rtt Time) {
	if rtt <= 0 {
		return
	}
	sf := &s.subs[i]
	if sf.srtt == 0 {
		sf.srtt = rtt
		sf.rttvar = rtt / 2
	} else {
		// SRTT = 7/8 SRTT + 1/8 R, RTTVAR = 3/4 RTTVAR + 1/4 |SRTT-R|.
		sf.rttvar = (3*sf.rttvar + max(sf.srtt-rtt, rtt-sf.srtt)) / 4
		sf.srtt = (7*sf.srtt + rtt) / 8
	}
	s.cc[i].SRTT = sf.srtt.Seconds()
	if s.rttObs != nil {
		s.rttObs.OnRTTSample(s.cc, i, rtt.Seconds())
	}
	s.cfg.Tracer.RTTSample(s.traceID, int32(i), rtt.Seconds())
	sf.rto = min(max(sf.srtt+4*sf.rttvar, s.cfg.MinRTO), MaxRTO)
}

// armRTO (re)starts subflow i's retransmission timer for the oldest
// outstanding packet, or stops it when nothing is in flight.
func (s *Sender) armRTO(i int) {
	sf := &s.subs[i]
	sf.rtoArmed = sf.outstanding() != 0
	if !sf.rtoArmed {
		s.sh.StopRTO(i)
		return
	}
	s.sh.ArmRTO(i, min(sf.rto<<sf.backoff, MaxRTO))
}
