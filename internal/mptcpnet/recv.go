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
	socks  []*sock

	mu   sync.Mutex
	cond *sync.Cond
	core proto.Receiver
	// segs holds every payload frame the receiver owns, by data
	// sequence, from readNxt (the core's consumed point) up:
	// [readNxt, core.DataRcvNxt()) is the in-order queue Read copies out
	// of, slots above it are the reorder buffer.
	segs    proto.Ring[*frame]
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
// if <= 0). The sockets stay the caller's; a *net.UDPConn is left with
// UDP_GRO on where the kernel has it.
func NewReceiver(connID uint64, conns []net.PacketConn, bufSegments int64) *Receiver {
	if bufSegments <= 0 {
		bufSegments = 256
	}
	r := &Receiver{connID: connID, finSeq: -1, socks: make([]*sock, len(conns)), peers: make([]net.Addr, len(conns)), held: make([]heldAck, len(conns))}
	r.core.Reset(len(conns), bufSegments, proto.AckDelayed)
	r.cond = sync.NewCond(&r.mu)
	for i := range conns {
		r.socks[i] = newSock(conns[i])
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
		f := *r.segs.At(r.readNxt)
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
		for sub := range r.socks {
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
	acks, to := [1]header{r.ackLocked(sub, echo, -1)}, r.peers[sub]
	r.mu.Unlock()
	if to != nil {
		f := getFrame()
		r.writeAcks(sub, acks[:], to, f.buf[:headerSize])
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

// arrival is one verified datagram of a run: its header and payload.
type arrival struct {
	h       header
	payload []byte
}

// readLoop reads a run at a time. Every datagram is checksummed before
// the lock is taken; the ones for this connection then go to the core
// under one acquisition, each ACK built in the same critical section as
// the state change it reports, and the ACKs the run produced leave
// together as a run.
func (r *Receiver) readLoop(sub int) {
	sk := r.socks[sub]
	var in []arrival
	var acks []header
	ackBuf := make([]byte, sk.runLen*headerSize)
	for {
		b, size, from, err := sk.readRun()
		if err != nil {
			return
		}
		in = in[:0]
		for off := 0; off < len(b); off += size {
			var h header
			if err := h.unmarshal(b[off:min(off+size, len(b))]); err != nil {
				if errors.Is(err, errBadFrame) {
					r.corrupt.Add(1)
				}
				continue
			}
			if h.ConnID == r.connID {
				in = append(in, arrival{h, b[off+headerSize : off+headerSize+int(h.Plen)]})
			}
		}
		if len(in) == 0 {
			continue
		}
		acks = acks[:0]
		r.mu.Lock()
		r.peers[sub] = from
		for i := range in {
			a := &in[i]
			sack, n := int64(-1), 1
			switch a.h.Type {
			case typeData:
				sack, n = r.onDataLocked(sub, &a.h, a.payload)
			case typeProbe: // acknowledge current state, change nothing
				r.core.OnProbe(sub)
			default:
				n = 0
			}
			ack := r.ackLocked(sub, a.h.Echo, sack)
			if n == 2 { // the owed cumulative ACK goes first, without the SACK
				owed := ack
				owed.Flags &^= flagSack
				acks = append(acks, owed)
			}
			if n > 0 {
				acks = append(acks, ack)
			}
		}
		r.mu.Unlock()
		r.writeAcks(sub, acks, from, ackBuf)
	}
}

// onDataLocked hands one data segment to the core and acts on its
// verdict: new data is copied into a frame the receiver keeps. It reports
// the new SACK information (-1: none) and how many ACKs the core wants
// sent now. An ACK the core owes instead waits for the subflow's delay
// timer, which is armed only when idle and never stopped by a later ACK:
// an expiry that finds nothing owed costs less than a Reset and a Stop
// per pair of segments.
func (r *Receiver) onDataLocked(sub int, h *header, payload []byte) (sack int64, acks int) {
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
		f := getFrame()
		f.n, f.off = headerSize+copy(f.buf[headerSize:], payload), headerSize
		r.segs.Put(r.readNxt, h.DataSeq, f)
		// Only an arrival that makes data readable wakes Read: waking it
		// for a segment that merely joins the reorder buffer costs a
		// goroutine switch that finds nothing — on paths of unequal
		// delay that is most arrivals.
		if h.DataSeq < r.core.DataRcvNxt() {
			r.cond.Broadcast()
		}
	}
	return sack, acks
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

// writeAcks marshals ACKs into buf, scratch the calling goroutine owns,
// and puts them on subflow sub's socket as runs of as many as buf holds.
func (r *Receiver) writeAcks(sub int, hs []header, to net.Addr, buf []byte) {
	for len(hs) > 0 {
		n := min(len(hs), len(buf)/headerSize)
		for i := range hs[:n] {
			f := buf[i*headerSize : (i+1)*headerSize]
			hs[i].marshal(f)
			sealFrame(f)
		}
		r.socks[sub].writeRun(buf[:n*headerSize], headerSize, to)
		hs = hs[n:]
	}
}

var _ io.Reader = (*Receiver)(nil)
