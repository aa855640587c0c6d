package proto

// Receiver is the receiving half of a connection: per-subflow cumulative
// acknowledgment for loss detection, connection-level stream reassembly
// over data sequence numbers, and a single shared receive buffer whose
// window is advertised relative to the data-level cumulative ACK — the
// design §6 of the paper arrives at after eliminating per-subflow buffers
// (deadlock) and inferred data ACKs (spurious drops).
//
// It tracks sequence numbers only; the shell keeps the payloads and
// sends the acknowledgments — subflow cumulative ack, explicit data ack,
// window, echoed timestamp — when the core says so: at once, or, under
// AckDelayed, owed until a second segment or the shell's delay timer
// (OnAckDelay). The zero value becomes usable with Reset.
//
// The out-of-order sets, one per subflow and one for the data level, are
// bit rings indexed by sequence number, so admitting a packet hashes and
// allocates nothing once they have grown. A set's memory is bounded by how
// far above its cumulative point a sequence may lie: the shared buffer
// bounds the data level, and a subflow sequence maxSubSpan or more above
// the subflow's cumulative ack is refused (Overflow), so a subflow's ring
// never exceeds 8 KiB whatever arrives off the wire.
type Receiver struct {
	subs []rcvSub

	// Connection-level reassembly.
	dataRcvNxt int64
	dataOOO    seqSet

	// Shared receive buffer (§6), in packets: it holds [readPt,
	// readPt+bufCap), where readPt is what the application has consumed.
	bufCap int64
	readPt int64

	// Delayed acknowledgment (RFC 5681 §4.2): how many quiet segments one
	// ACK may cover, and whether the packet that ends the peer's stream
	// has arrived (nothing is delayed after that).
	policy AckPolicy
	fin    bool

	// Overflow counts packets dropped because the buffer was full or
	// their subflow sequence lay beyond maxSubSpan.
	Overflow int64
	// DupData counts packets carrying already-received data (e.g. after
	// reinjection); they consume no buffer.
	DupData int64
}

// rcvSub is one subflow's receive-side state.
type rcvSub struct {
	rcvNxt int64  // cumulative acknowledgment
	ooo    seqSet // received above it
	// delivered counts the distinct data packets this subflow was first
	// to deliver; ackOwed the segments it holds unacknowledged, always
	// below the policy.
	delivered int64
	ackOwed   AckPolicy
}

// maxSubSpan is how far above a subflow's cumulative ack a sequence may
// lie: the bound on its out-of-order ring (1<<16 bits, 8 KiB). No correct
// sender comes near it; its window would have to be 65 536 packets.
const maxSubSpan = 1 << 16

// AckPolicy is how many quiet in-order segments of a subflow one
// acknowledgment may cover. A shell picks it once, at Reset.
type AckPolicy int8

const (
	// AckEveryPacket acknowledges every data packet as it arrives: the
	// simulator's rule, which all its artefacts pin.
	AckEveryPacket AckPolicy = 1
	// AckDelayed owes the ACK of a lone quiet segment until the next one
	// or the shell's delay, halving the ACK traffic of a bulk transfer.
	AckDelayed AckPolicy = 2
)

// Reset rebuilds the receiver for a new life with nsub subflows, a shared
// buffer of bufCap packets and the given ACK policy, clearing (and
// keeping) the out-of-order sets of a previous life with the same subflow
// count.
func (r *Receiver) Reset(nsub int, bufCap int64, policy AckPolicy) {
	if len(r.subs) != nsub {
		*r = Receiver{subs: make([]rcvSub, nsub)}
	}
	for i := range r.subs {
		sf := &r.subs[i]
		sf.rcvNxt, sf.delivered, sf.ackOwed = 0, 0, 0
		sf.ooo.reset()
	}
	r.dataOOO.reset()
	r.dataRcvNxt, r.readPt, r.bufCap, r.policy, r.fin = 0, 0, bufCap, policy, false
	r.Overflow, r.DupData = 0, 0
}

// DataRcvNxt returns the data-level cumulative acknowledgment: the count
// of data packets received in order.
func (r *Receiver) DataRcvNxt() int64 { return r.dataRcvNxt }

// SubRcvNxt returns subflow sub's cumulative acknowledgment.
func (r *Receiver) SubRcvNxt(sub int) int64 { return r.subs[sub].rcvNxt }

// SubDelivered returns the number of distinct data packets obtained via
// subflow sub (per-path goodput).
func (r *Receiver) SubDelivered(sub int) int64 { return r.subs[sub].delivered }

// Readable returns the count of in-order data packets the application
// has not consumed yet.
func (r *Receiver) Readable() int64 { return r.dataRcvNxt - r.readPt }

// Window returns the advertised receive window in packets, relative to
// the data-level cumulative ack.
func (r *Receiver) Window() int64 { return max(r.readPt+r.bufCap-r.dataRcvNxt, 0) }

// Consume records that the application read n more data packets and
// reports whether that reopened a closed window — when the shell owes the
// sender a window update on every subflow, as a real TCP receiver sends
// one when the application's read reopens a closed window. The updates
// are cumulative ACKs: they settle whatever the subflows owed.
func (r *Receiver) Consume(n int64) (reopened bool) {
	closed := r.Window() == 0
	r.readPt += n
	if reopened = closed && r.Window() > 0; reopened {
		for i := range r.subs {
			r.subs[i].ackOwed = 0
		}
	}
	return reopened
}

// OnProbe admits a zero-window probe on sub — a packet outside the
// sequence space, which the shell answers at once with the current state,
// settling what sub owed.
func (r *Receiver) OnProbe(sub int) { r.subs[sub].ackOwed = 0 }

// OnAckDelay is the shell's delay expiring on sub (the core has no
// clock): it reports whether an acknowledgment is still owed there, and
// settles it.
func (r *Receiver) OnAckDelay(sub int) (owed bool) {
	owed = r.subs[sub].ackOwed > 0
	r.subs[sub].ackOwed = 0
	return owed
}

// Verdict is what the shell must do with an arriving data packet.
type Verdict uint8

const (
	// Overflow: beyond the shared buffer's edge, or a subflow sequence
	// maxSubSpan or more above the subflow's cumulative ack. Drop it like
	// a network loss — no ACK — so subflow-level retransmission recovers
	// it once the window reopens; a correct sender never triggers this.
	Overflow Verdict = iota
	// Duplicate: data already held or delivered. Acknowledge, keep no
	// payload.
	Duplicate
	// New: data seen for the first time. Keep the payload and
	// acknowledge.
	New
)

// OnData admits one data packet; last marks the one that ends the peer's
// stream, after which nothing is delayed: no more data is coming to clock
// an owed ACK out. sack is the subflow sequence to selectively
// acknowledge, or -1: only a new out-of-order arrival is
// SACKed, so that a duplicate arrival produces an ACK with no new
// information, which the sender must not count toward fast retransmit
// (RFC 6675's DupAck definition). acks is how many acknowledgments the
// shell sends now: 0 with Overflow, or when the ACK is owed and the shell
// sees that its delay timer runs; 2 when an out-of-order arrival finds one
// owed — first the owed cumulative ACK with no SACK, then this packet's,
// because the sender counts a SACK as a duplicate only on an ACK that
// leaves its cumulative point alone.
func (r *Receiver) OnData(sub int, seq, dataSeq int64, last bool) (v Verdict, sack int64, acks int) {
	// Shared-buffer admission comes first: admitting the subflow sequence
	// while dropping the data would acknowledge a packet whose payload
	// nobody will resend. The span bound rides along: it caps the memory a
	// sequence read off the wire can claim.
	sf := &r.subs[sub]
	if dataSeq >= r.readPt+r.bufCap || seq >= sf.rcvNxt+maxSubSpan {
		r.Overflow++
		return Overflow, -1, 0
	}
	r.fin = r.fin || last

	// Subflow-level sequence tracking (loss detection). Out-of-order
	// arrivals are SACKed individually and never delayed, so the sender
	// learns the exact hole set.
	sack = -1
	if seq == sf.rcvNxt {
		sf.rcvNxt = sf.ooo.drain(seq + 1)
	} else if seq > sf.rcvNxt && sf.ooo.add(sf.rcvNxt, seq) {
		sack = seq
	}

	// Connection-level reassembly.
	v, was := New, r.dataRcvNxt
	switch {
	case dataSeq < was || r.dataOOO.has(was, dataSeq):
		r.DupData++
		v = Duplicate
	case dataSeq == was:
		sf.delivered++
		r.dataRcvNxt = r.dataOOO.drain(dataSeq + 1)
	default:
		sf.delivered++
		r.dataOOO.add(was, dataSeq)
	}

	// Only a quiet segment may wait: new data, next in order on a subflow
	// with no hole above it, that moved the data-level point by at most
	// itself, before the last one and with more than a quarter of the buffer
	// still on offer. Everything else tells the sender something it acts
	// on — a loss, a repair, a jump of the flow-control edge — and goes
	// now, as does the segment that reaches the policy's count.
	owed := sf.ackOwed
	if owed+1 < r.policy && v == New && sf.rcvNxt == seq+1 && sf.ooo.n == 0 &&
		r.dataRcvNxt-was <= 1 && !r.fin && 4*r.Window() > r.bufCap {
		sf.ackOwed++
		return v, sack, 0
	}
	sf.ackOwed = 0
	if owed > 0 && sack >= 0 {
		return v, sack, 2
	}
	return v, sack, 1
}
