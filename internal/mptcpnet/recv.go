package mptcpnet

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Receiver is the receiving side of a multipath connection: it reads
// segments from every subflow socket, acknowledges them (subflow ack +
// explicit data ack + shared-buffer window, per §6), reassembles the data
// stream and serves it through Read.
type Receiver struct {
	connID uint64
	conns  []net.PacketConn

	mu        sync.Mutex
	cond      *sync.Cond
	subRcvNxt []int64
	subOOO    []map[int64]struct{}
	// segs holds every frame the receiver owns, by data sequence:
	// [readNxt, dataNxt) is the in-order read queue Read copies out of,
	// slots above dataNxt are the reorder buffer (nil = not yet arrived).
	// Delivering a segment in order is therefore just dataNxt++.
	segs    ring[*frame]
	readNxt int64
	dataNxt int64
	finSeq  int64 // end-of-stream data sequence, -1 until FIN seen
	bufCap  int64 // shared receive buffer, segments
	held    int64
	closed  bool

	// Stats, guarded by mu; read via Stats() and SubflowReceived().
	segsRecvd    int64
	dupData      int64
	overflow     int64 // segments refused by the shared buffer
	subflowRecvd []int64

	// corrupt counts inbound frames dropped by the checksum; atomic (not
	// mu) because readLoop bumps it without taking the lock.
	corrupt atomic.Int64
}

// NewReceiver builds a receiver listening on the given subflow sockets.
// bufSegments is the shared receive buffer size in segments (default 256
// if <= 0).
func NewReceiver(connID uint64, conns []net.PacketConn, bufSegments int64) *Receiver {
	if bufSegments <= 0 {
		bufSegments = 256
	}
	r := &Receiver{
		connID:       connID,
		conns:        conns,
		subRcvNxt:    make([]int64, len(conns)),
		subOOO:       make([]map[int64]struct{}, len(conns)),
		finSeq:       -1,
		bufCap:       bufSegments,
		subflowRecvd: make([]int64, len(conns)),
	}
	r.cond = sync.NewCond(&r.mu)
	for i := range r.subOOO {
		r.subOOO[i] = make(map[int64]struct{})
	}
	for i := range conns {
		go r.readLoop(i)
	}
	return r
}

// Read returns in-order stream data, blocking until some is available or
// the stream ends (io.EOF).
func (r *Receiver) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.readNxt == r.dataNxt {
		if r.finSeq >= 0 && r.dataNxt >= r.finSeq {
			return 0, io.EOF
		}
		if r.closed {
			return 0, io.ErrClosedPipe
		}
		r.cond.Wait()
	}
	n := 0
	for n < len(p) && r.readNxt < r.dataNxt {
		slot := r.segs.at(r.readNxt)
		f := *slot
		c := copy(p[n:], f.buf[f.off:f.n])
		n, f.off = n+c, f.off+c
		if f.off == f.n { // consumed: the frame goes back to the pool
			*slot = nil
			putFrame(f)
			r.readNxt++
		}
	}
	return n, nil
}

// Close stops the receiver (the sockets themselves belong to the caller).
func (r *Receiver) Close() error {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	return nil
}

// Received returns the count of distinct data segments delivered so far.
func (r *Receiver) Received() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dataNxt
}

// Stats returns the receiver's counters: segments received (including
// duplicates), duplicate-data arrivals, and segments refused by the
// shared buffer.
func (r *Receiver) Stats() (recvd, dupData, overflow int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.segsRecvd, r.dupData, r.overflow
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
	return r.subflowRecvd[i]
}

func (r *Receiver) window() int64 {
	w := r.bufCap - r.held
	if w < 0 {
		w = 0
	}
	return w
}

// readLoop reads datagrams straight into a pooled frame. A frame that
// onDataLocked keeps (new data) is replaced by a fresh one; anything else
// is overwritten by the next read. The ACK is built in the same critical
// section as the state change it reports and marshalled into a scratch
// header this goroutine owns.
func (r *Receiver) readLoop(sub int) {
	var ackBuf [headerSize]byte
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
		sack, reply, kept := int64(-1), true, false
		r.mu.Lock()
		switch h.Type {
		case typeData:
			f.n, f.off = headerSize+int(h.Plen), headerSize
			sack, reply, kept = r.onDataLocked(sub, &h, f)
		case typeFin:
			if r.finSeq < 0 || h.Aux < r.finSeq {
				r.finSeq = h.Aux
			}
			r.cond.Broadcast()
		case typeProbe:
		default:
			reply = false
		}
		ack := r.ackLocked(sub, h.Echo, sack)
		r.mu.Unlock()
		if kept {
			f = getFrame()
		}
		if reply {
			ack.marshal(ackBuf[:])
			sealFrame(ackBuf[:])
			r.conns[sub].WriteTo(ackBuf[:], from) //nolint:errcheck // lossy path semantics
		}
	}
}

// onDataLocked admits one data segment carried in f. It reports the new
// SACK information (-1: none), whether to acknowledge at all, and
// whether the receiver kept f.
func (r *Receiver) onDataLocked(sub int, h *header, f *frame) (sack int64, reply, kept bool) {
	r.segsRecvd++

	// Shared-buffer admission first (§6): data beyond the buffer edge is
	// treated exactly like a network loss — no subflow state changes and
	// no ACK — so subflow-level retransmission recovers it once the
	// window reopens. Admitting the subflow sequence while dropping the
	// data would acknowledge a segment whose payload nobody will resend.
	if h.DataSeq >= r.dataNxt+r.bufCap {
		r.overflow++
		return -1, false, false
	}

	sack = -1
	seq := h.Seq
	switch {
	case seq == r.subRcvNxt[sub]:
		r.subRcvNxt[sub]++
		for {
			if _, ok := r.subOOO[sub][r.subRcvNxt[sub]]; !ok {
				break
			}
			delete(r.subOOO[sub], r.subRcvNxt[sub])
			r.subRcvNxt[sub]++
		}
	case seq > r.subRcvNxt[sub]:
		if _, dup := r.subOOO[sub][seq]; !dup {
			sack = seq // new SACK information only (RFC 6675)
		}
		r.subOOO[sub][seq] = struct{}{}
	}

	d := h.DataSeq
	if d < r.dataNxt || r.seg(d) != nil {
		r.dupData++
		return sack, true, false
	}
	r.segs.put(r.readNxt, d, f)
	r.held++
	r.subflowRecvd[sub]++
	// Only an arrival at dataNxt makes anything readable. Waking Read for
	// a segment that merely joins the reorder buffer costs a goroutine
	// switch that finds nothing — on paths of unequal delay that is most
	// arrivals.
	if d == r.dataNxt {
		for r.seg(r.dataNxt) != nil {
			r.held--
			r.dataNxt++
		}
		r.cond.Broadcast()
	}
	return sack, true, true
}

// seg returns the frame held for data sequence d >= readNxt, or nil.
func (r *Receiver) seg(d int64) *frame {
	if d-r.readNxt >= int64(len(r.segs.buf)) {
		return nil
	}
	return *r.segs.at(d)
}

// ackLocked builds the §6 acknowledgment: subflow cumulative ack,
// explicit data ack, shared-buffer window and echoed timestamp (+
// optional SACK).
func (r *Receiver) ackLocked(sub int, echo uint32, sack int64) header {
	h := header{
		Type:    typeAck,
		Subflow: uint16(sub),
		ConnID:  r.connID,
		Seq:     r.subRcvNxt[sub],
		DataSeq: r.dataNxt,
		Window:  uint32(r.window()),
		Echo:    echo,
	}
	if sack >= 0 {
		h.Flags |= flagSack
		h.Aux = sack
	}
	return h
}

var _ io.Reader = (*Receiver)(nil)
