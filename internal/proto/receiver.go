package proto

// Receiver is the receiving half of a connection: per-subflow cumulative
// acknowledgment for loss detection, connection-level stream reassembly
// over data sequence numbers, and a single shared receive buffer whose
// window is advertised relative to the data-level cumulative ACK — the
// design §6 of the paper arrives at after eliminating per-subflow buffers
// (deadlock) and inferred data ACKs (spurious drops).
//
// It tracks sequence numbers only; the shell keeps the payloads, and
// acknowledges every data packet immediately with the subflow cumulative
// ack, the explicit data ack, the window and the echoed timestamp. The
// zero value becomes usable with Reset.
type Receiver struct {
	// Per-subflow sequence state; subDelivered counts the distinct data
	// packets each subflow was first to deliver.
	subRcvNxt    []int64
	subOOO       []map[int64]struct{}
	subDelivered []int64

	// Connection-level reassembly.
	dataRcvNxt int64
	dataOOO    map[int64]struct{}

	// Shared receive buffer (§6), in packets: it holds [readPt,
	// readPt+bufCap), where readPt is what the application has consumed.
	bufCap int64
	readPt int64

	// Overflow counts packets dropped because the buffer was full.
	Overflow int64
	// DupData counts packets carrying already-received data (e.g. after
	// reinjection); they consume no buffer.
	DupData int64
}

// Reset rebuilds the receiver for a new life with nsub subflows and a
// shared buffer of bufCap packets, clearing (and keeping) the
// out-of-order sets of a previous life with the same subflow count.
func (r *Receiver) Reset(nsub int, bufCap int64) {
	if len(r.subRcvNxt) != nsub {
		*r = Receiver{
			subRcvNxt:    make([]int64, nsub),
			subOOO:       make([]map[int64]struct{}, nsub),
			subDelivered: make([]int64, nsub),
			dataOOO:      make(map[int64]struct{}),
		}
		for i := range r.subOOO {
			r.subOOO[i] = make(map[int64]struct{})
		}
	}
	for i := range r.subRcvNxt {
		r.subRcvNxt[i], r.subDelivered[i] = 0, 0
		clear(r.subOOO[i])
	}
	clear(r.dataOOO)
	r.dataRcvNxt, r.readPt, r.bufCap = 0, 0, bufCap
	r.Overflow, r.DupData = 0, 0
}

// DataRcvNxt returns the data-level cumulative acknowledgment: the count
// of data packets received in order.
func (r *Receiver) DataRcvNxt() int64 { return r.dataRcvNxt }

// SubRcvNxt returns subflow sub's cumulative acknowledgment.
func (r *Receiver) SubRcvNxt(sub int) int64 { return r.subRcvNxt[sub] }

// SubDelivered returns the number of distinct data packets obtained via
// subflow sub (per-path goodput).
func (r *Receiver) SubDelivered(sub int) int64 { return r.subDelivered[sub] }

// Readable returns the count of in-order data packets the application
// has not consumed yet.
func (r *Receiver) Readable() int64 { return r.dataRcvNxt - r.readPt }

// Window returns the advertised receive window in packets, relative to
// the data-level cumulative ack.
func (r *Receiver) Window() int64 { return max(r.readPt+r.bufCap-r.dataRcvNxt, 0) }

// Consume records that the application read n more data packets and
// reports whether that reopened a closed window — when the shell owes the
// sender a window update on every subflow, as a real TCP receiver sends
// one when the application's read reopens a closed window.
func (r *Receiver) Consume(n int64) (reopened bool) {
	closed := r.Window() == 0
	r.readPt += n
	return closed && r.Window() > 0
}

// Verdict is what the shell must do with an arriving data packet.
type Verdict uint8

const (
	// Overflow: beyond the shared buffer's edge. Drop it like a network
	// loss — no ACK — so subflow-level retransmission recovers it once
	// the window reopens; a correct sender never triggers this.
	Overflow Verdict = iota
	// Duplicate: data already held or delivered. Acknowledge, keep no
	// payload.
	Duplicate
	// New: data seen for the first time. Keep the payload and
	// acknowledge.
	New
)

// OnData admits one data packet. sack is the subflow sequence to
// selectively acknowledge, or -1: only a new out-of-order arrival is
// SACKed, so that a duplicate arrival produces an ACK with no new
// information, which the sender must not count toward fast retransmit
// (RFC 6675's DupAck definition).
func (r *Receiver) OnData(sub int, seq, dataSeq int64) (v Verdict, sack int64) {
	// Shared-buffer admission comes first: admitting the subflow sequence
	// while dropping the data would acknowledge a packet whose payload
	// nobody will resend.
	if dataSeq >= r.readPt+r.bufCap {
		r.Overflow++
		return Overflow, -1
	}

	// Subflow-level sequence tracking (loss detection). Out-of-order
	// arrivals are SACKed individually; with per-packet ACKs the sender
	// learns the exact hole set.
	sack = -1
	ooo := r.subOOO[sub]
	if seq == r.subRcvNxt[sub] {
		r.subRcvNxt[sub] = drain(ooo, seq+1)
	} else if seq > r.subRcvNxt[sub] {
		if _, dup := ooo[seq]; !dup {
			sack = seq
		}
		ooo[seq] = struct{}{}
	}

	// Connection-level reassembly.
	held := dataSeq < r.dataRcvNxt
	if !held {
		_, held = r.dataOOO[dataSeq]
	}
	if held {
		r.DupData++
		return Duplicate, sack
	}
	r.subDelivered[sub]++
	if dataSeq == r.dataRcvNxt {
		r.dataRcvNxt = drain(r.dataOOO, dataSeq+1)
	} else {
		r.dataOOO[dataSeq] = struct{}{}
	}
	return New, sack
}

// drain advances a cumulative point from next across the out-of-order
// set, removing what it passes, and returns where it stopped.
func drain(ooo map[int64]struct{}, next int64) int64 {
	for {
		if _, ok := ooo[next]; !ok {
			return next
		}
		delete(ooo, next)
		next++
	}
}
