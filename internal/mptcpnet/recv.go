package mptcpnet

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mptcp/internal/proto"
)

// ackDelay is how long an ACK the core owes may wait for a second
// segment: well under MinRTO and the persist interval, and LAN-sized —
// the 25-40 ms of WAN stacks would tax every cwnd = 1 segment after a
// timeout.
const ackDelay = time.Millisecond

// Receiver is the receiving side of a multipath connection: it reads
// segments from every subflow socket, acknowledges them (subflow ack +
// explicit data ack + shared-buffer window, per §6), reassembles the data
// stream and serves it through Read. The sequence tracking, the window,
// the keep-or-drop verdicts and when to acknowledge are the protocol
// core's; this shell owns the sockets, the payload frames, the blocking
// Read and the delay timers.
type Receiver struct {
	connID uint64
	conns  []net.PacketConn

	mu   sync.Mutex
	cond *sync.Cond
	core proto.Receiver
	// segs holds every payload frame the receiver owns, by data
	// sequence, from readNxt (the core's consumed point) up:
	// [readNxt, core.DataRcvNxt()) is the in-order queue Read copies out
	// of, slots above it are the reorder buffer.
	segs    ring[*frame]
	readNxt int64
	finSeq  int64 // data sequence of the end-of-stream segment, -1 until it arrives
	closed  bool
	// peers is where each subflow's datagrams last came from: window
	// updates and delayed ACKs go there.
	peers []net.Addr
	held  []heldAck

	segsRecvd int64 // segments received, including duplicates

	// corrupt counts inbound frames dropped by the checksum; atomic (not
	// mu) because readLoop bumps it without taking the lock.
	corrupt atomic.Int64
}

// heldAck is one subflow's delayed-ACK state: the timer, and the echo
// timestamp of the segment whose ACK waits with its arrival time.
type heldAck struct {
	tm   timer
	echo uint32
	at   time.Time
}

// NewReceiver builds a receiver listening on the given subflow sockets.
// bufSegments is the shared receive buffer size in segments (default 256
// if <= 0).
func NewReceiver(connID uint64, conns []net.PacketConn, bufSegments int64) *Receiver {
	if bufSegments <= 0 {
		bufSegments = 256
	}
	r := &Receiver{connID: connID, conns: conns, finSeq: -1, peers: make([]net.Addr, len(conns)), held: make([]heldAck, len(conns))}
	r.core.Reset(len(conns), bufSegments, proto.AckDelayed)
	r.cond = sync.NewCond(&r.mu)
	for i := range conns {
		r.held[i].tm = newTimer(func() { r.ackOutOfBand(i, false) })
		go r.readLoop(i)
	}
	return r
}

// Read returns in-order stream data, blocking until some is available or
// the stream ends (io.EOF): Read has consumed the end-of-stream segment,
// which is in order only once everything before it is. It never returns
// 0, nil for a non-empty p. A read that reopens a closed receive window
// sends a window update on every subflow.
func (r *Receiver) Read(p []byte) (int, error) {
	r.mu.Lock()
	for r.core.Readable() == 0 {
		var err error
		switch {
		case r.endedLocked():
			err = io.EOF
		case r.closed:
			err = io.ErrClosedPipe
		}
		if err != nil {
			r.mu.Unlock()
			return 0, err
		}
		r.cond.Wait()
	}
	n, reopened := 0, false
	for n < len(p) && r.core.Readable() > 0 {
		f := *r.segs.at(r.readNxt)
		c := copy(p[n:], f.buf[f.off:f.n])
		n, f.off = n+c, f.off+c
		if f.off == f.n { // consumed: the frame goes back to the pool
			putFrame(f)
			r.readNxt++
			reopened = r.core.Consume(1) || reopened
		}
	}
	// The empty end-of-stream segment is consumed like any other (the
	// window accounting closes); when nothing else was readable it is the
	// EOF.
	ended := n == 0 && r.endedLocked()
	r.mu.Unlock()
	if reopened {
		for sub := range r.conns {
			r.ackOutOfBand(sub, true)
		}
	}
	if ended {
		return 0, io.EOF
	}
	return n, nil
}

// endedLocked reports whether Read has consumed the end-of-stream segment.
func (r *Receiver) endedLocked() bool { return r.finSeq >= 0 && r.readNxt > r.finSeq }

// ackOutOfBand acknowledges subflow sub's current state from outside its
// readLoop, with a pooled frame as marshalling scratch: Read's window
// update (echo 0: no transmission to time), or the delay timer asking the
// core whether an ACK is still owed. That one echoes the held segment's
// timestamp advanced by the time it was held, so the sender's now - echo
// sample does not count the delay.
func (r *Receiver) ackOutOfBand(sub int, update bool) {
	r.mu.Lock()
	h, echo := &r.held[sub], uint32(0)
	if !update {
		h.tm.on = false
		if r.closed || !r.core.OnAckDelay(sub) {
			r.mu.Unlock()
			return
		}
		if echo = h.echo; echo != 0 {
			echo += uint32(time.Since(h.at) / time.Microsecond)
		}
	}
	ack, to := r.ackLocked(sub, echo, -1), r.peers[sub]
	r.mu.Unlock()
	if to != nil {
		f := getFrame()
		r.writeAck(sub, &ack, to, f.buf[:headerSize])
		putFrame(f)
	}
}

// Close stops the receiver (the sockets themselves belong to the caller).
func (r *Receiver) Close() error {
	r.mu.Lock()
	r.closed = true
	for i := range r.held {
		r.held[i].tm.stop()
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	return nil
}

// Received returns the count of distinct data segments delivered in order
// so far. The end-of-stream segment has a data sequence and is one of
// them: a finished stream of n segments reads n+1.
func (r *Receiver) Received() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.DataRcvNxt()
}

// Stats returns the receiver's counters: segments received (including
// duplicates), duplicate-data arrivals, and segments refused by the
// shared buffer.
func (r *Receiver) Stats() (recvd, dupData, overflow int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.segsRecvd, r.core.DupData, r.core.Overflow
}

// Corrupted returns the count of inbound frames dropped because their
// checksum did not verify — damaged in flight and refused before any
// sequence state could be polluted.
func (r *Receiver) Corrupted() int64 { return r.corrupt.Load() }

// SubflowReceived returns the count of distinct data segments that
// arrived via subflow i (per-path goodput).
func (r *Receiver) SubflowReceived(i int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.SubDelivered(i)
}

// readLoop reads datagrams straight into a pooled frame. A frame the
// core's verdict keeps (new data) is replaced by a fresh one; anything
// else is overwritten by the next read. The ACK is built in the same
// critical section as the state change it reports.
func (r *Receiver) readLoop(sub int) {
	ackBuf := make([]byte, headerSize)
	f := getFrame()
	for {
		n, from, err := r.conns[sub].ReadFrom(f.buf[:])
		if err != nil {
			return
		}
		var h header
		if err := h.unmarshal(f.buf[:n]); err != nil {
			if errors.Is(err, errBadFrame) {
				r.corrupt.Add(1)
			}
			continue
		}
		if h.ConnID != r.connID {
			continue
		}
		sack, acks, kept := int64(-1), 1, false
		r.mu.Lock()
		r.peers[sub] = from
		switch h.Type {
		case typeData:
			sack, acks, kept = r.onDataLocked(sub, &h, f)
		case typeProbe: // acknowledge current state, change nothing
			r.core.OnProbe(sub)
		default:
			acks = 0
		}
		ack := r.ackLocked(sub, h.Echo, sack)
		r.mu.Unlock()
		if kept {
			f = getFrame()
		}
		if acks == 2 { // the owed cumulative ACK goes first, without the SACK
			owed := ack
			owed.Flags &^= flagSack
			r.writeAck(sub, &owed, from, ackBuf)
		}
		if acks > 0 {
			r.writeAck(sub, &ack, from, ackBuf)
		}
	}
}

// onDataLocked hands one data segment, carried in f, to the core and
// acts on its verdict. It reports the new SACK information (-1: none),
// how many ACKs the core wants sent now, and whether the receiver kept f.
// An ACK the core owes instead waits for the subflow's delay timer, which
// is armed only when idle and never stopped by a later ACK: an expiry that
// finds nothing owed costs less than a Reset and a Stop per pair of
// segments.
func (r *Receiver) onDataLocked(sub int, h *header, f *frame) (sack int64, acks int, kept bool) {
	r.segsRecvd++
	last := h.Flags&flagFin != 0
	v, sack, acks := r.core.OnData(sub, h.Seq, h.DataSeq, last)
	if held := &r.held[sub]; acks == 0 && v != proto.Overflow {
		held.echo, held.at = h.Echo, time.Now()
		if !held.tm.on && !r.closed {
			held.tm.arm(proto.Time(ackDelay))
		}
	}
	if v == proto.New {
		if last {
			r.finSeq = h.DataSeq
		}
		f.n, f.off = headerSize+int(h.Plen), headerSize
		r.segs.put(r.readNxt, h.DataSeq, f)
		// Only an arrival that makes data readable wakes Read: waking it
		// for a segment that merely joins the reorder buffer costs a
		// goroutine switch that finds nothing — on paths of unequal
		// delay that is most arrivals.
		if h.DataSeq < r.core.DataRcvNxt() {
			r.cond.Broadcast()
		}
	}
	return sack, acks, v == proto.New
}

// ackLocked builds the §6 acknowledgment: subflow cumulative ack,
// explicit data ack, shared-buffer window and echoed timestamp (+
// optional SACK).
func (r *Receiver) ackLocked(sub int, echo uint32, sack int64) header {
	h := header{
		Type:    typeAck,
		Subflow: uint16(sub),
		ConnID:  r.connID,
		Seq:     r.core.SubRcvNxt(sub),
		DataSeq: r.core.DataRcvNxt(),
		Window:  uint32(r.core.Window()),
		Echo:    echo,
	}
	if sack >= 0 {
		h.Flags |= flagSack
		h.Aux = sack
	}
	return h
}

// writeAck marshals one ACK into buf, scratch the calling goroutine owns,
// and puts it on subflow sub's socket.
func (r *Receiver) writeAck(sub int, h *header, to net.Addr, buf []byte) {
	h.marshal(buf)
	sealFrame(buf)
	r.conns[sub].WriteTo(buf, to) //nolint:errcheck // lossy path semantics
}

var _ io.Reader = (*Receiver)(nil)
