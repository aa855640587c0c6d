package mptcpnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mptcp/internal/core"
	"mptcp/internal/proto"
	"mptcp/internal/sched"
	"mptcp/internal/trace"
)

// Config parameterises a sender.
type Config struct {
	// Alg is the coupled congestion controller; defaults to &core.MPTCP{}
	// (core.Regular{}, the same arithmetic, on a single subflow).
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
	// Tracer, when non-nil, records the sender's protocol events (cwnd
	// changes, RTT samples, losses, retransmissions, scheduler picks, §6
	// countermeasures) into internal/trace ring buffers, stamped on the
	// tracer's clock — construct it with trace.WallNow for this wall-
	// clock stack. nil (the default) disables tracing at zero cost.
	Tracer *trace.Tracer
}

// Sender is the transmitting side of a multipath connection. It
// implements io.WriteCloser; Write blocks once the send buffer reaches
// one run (maxRunSegs) past the flow-control edge, so the buffer never
// holds more than the receiver's window plus one run.
//
// It is the real-UDP shell of the protocol core: it owns the payload and
// wire frames, the sockets and their goroutines and the time.Timers, and
// implements proto.Shell. Every protocol decision — what to send where,
// loss recovery, flow control, when the stream is delivered, when to give
// up — is the core's.
type Sender struct {
	cfg    Config
	connID uint64
	subs   []*sendSubflow
	start  time.Time // epoch of the core's clock and of the echoed timestamps

	mu   sync.Mutex
	cond *sync.Cond
	// core is the protocol; every call into it, and every proto.Shell
	// call it makes back, runs with mu held.
	core proto.Sender
	// segs holds the payload frame of every data sequence in
	// [freed, dataEnd): Write fills dataEnd, Close appends the empty
	// end-of-stream segment, and a frame is freed when the core's
	// data-level ACK passes it.
	segs       proto.Ring[*frame]
	dataEnd    int64
	freed      int64
	persist    timer
	closed     bool // Close was called: dataEnd-1 is the end-of-stream segment
	completed  bool // the core saw everything, the end of stream included, acknowledged
	acksRecvd  int64
	corrupt    int64 // inbound frames dropped by the checksum
	err        error
	done       chan struct{} // closed once the sender has completed or aborted
	doneClosed bool
}

type sendSubflow struct {
	id     int
	sock   *sock
	remote net.Addr
	parent *Sender

	// sendQ feeds the subflow's single writer goroutine (writeLoop):
	// datagrams leave in exactly the order Emit queued them. One
	// goroutine per write would let the Go scheduler reorder in-subflow
	// transmissions, manufacturing spurious dupSACKs and fast retransmits
	// on a loss-free path.
	sendQ chan *frame

	rto timer // the retransmission timer, guarded by the parent's mu
}

// timer is a time.Timer created once and re-armed with Reset. deadline
// is when the armed expiry really is, so a callback that fires early or
// lost a race with a re-arm can tell (see expired).
type timer struct {
	t        *time.Timer
	on       bool
	deadline time.Time
}

func newTimer(f func()) timer {
	t := time.AfterFunc(time.Hour, f)
	t.Stop() // armed by the core
	return timer{t: t}
}

func (tm *timer) arm(d proto.Time) {
	tm.on, tm.deadline = true, time.Now().Add(time.Duration(d))
	tm.t.Reset(time.Duration(d))
}

func (tm *timer) stop() {
	tm.on = false
	tm.t.Stop()
}

// expired reports, with mu held, whether the callback now running is the
// armed expiry. Stop cannot recall a callback already blocked on mu: one
// that lost the race with an ACK finds the timer disarmed, or the
// deadline moved — and then only re-arms for the remainder.
func (tm *timer) expired() bool {
	if !tm.on {
		return false
	}
	if d := time.Until(tm.deadline); d > 0 {
		tm.t.Reset(d)
		return false
	}
	tm.on = false
	return true
}

// defaultWindow is the conservative flow-control edge assumed until the
// first ACK advertises the receiver's real shared-buffer window. Being
// the core's SenderConfig.Window, it also bounds Write's backlog until
// then and starts each subflow's scoreboard ring at 64 slots.
const defaultWindow = 64

// sendQueueCap is the per-subflow writer queue depth, in segments.
const sendQueueCap = 512

// NewSender builds a sender whose subflow i talks over conns[i] to
// remotes[i]. The caller owns the PacketConns until Close; a
// *net.UDPConn is left with UDP_GRO on where the kernel has it.
func NewSender(connID uint64, conns []net.PacketConn, remotes []net.Addr, cfg Config) *Sender {
	if len(conns) == 0 || len(conns) != len(remotes) {
		panic("mptcpnet: need one remote per subflow conn")
	}
	if cfg.Sched == nil {
		cfg.Sched = sched.MinRTT{}
	}
	s := &Sender{cfg: cfg, connID: connID, start: time.Now(), done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	s.persist = newTimer(s.onPersist)
	for i := range conns {
		sf := &sendSubflow{id: i, sock: newSock(conns[i]), remote: remotes[i], parent: s, sendQ: make(chan *frame, sendQueueCap)}
		sf.rto = newTimer(sf.onRTO)
		s.subs = append(s.subs, sf)
	}
	s.core.Reset(s, proto.SenderConfig{
		Subflows:  len(conns),
		Alg:       cfg.Alg,
		Sched:     cfg.Sched,
		SchedOpts: cfg.SchedOpts,
		Window:    defaultWindow,
		MinRTO:    proto.Time(cfg.MinRTO),
		Tracer:    cfg.Tracer,
	})
	for _, sf := range s.subs {
		go sf.readLoop()
		go sf.writeLoop()
	}
	return s
}

// now is the core's clock: monotonic time since the sender was built.
func (s *Sender) now() proto.Time { return proto.Time(time.Since(s.start)) }

// echoNow is the timestamp stamped on outgoing frames and echoed by the
// receiver: microseconds on the same clock, truncated to the wire's 32
// bits.
func (s *Sender) echoNow() uint32 { return uint32(time.Since(s.start) / time.Microsecond) }

// Write queues p for transmission, blocking on flow control. It
// implements io.Writer over the data stream.
func (s *Sender) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for len(p) > 0 {
		// Backpressure: the send buffer follows the window, ending at
		// most one run past the flow-control edge — but keep the network
		// pumped before blocking, or nothing would ever drain it.
		if s.dataEnd >= s.core.Edge()+maxRunSegs {
			s.pumpLocked()
			for s.dataEnd >= s.core.Edge()+maxRunSegs && s.err == nil && !s.closed {
				s.cond.Wait()
			}
		}
		if s.err != nil {
			return n, s.err
		}
		if s.closed {
			return n, errors.New("mptcpnet: write on closed sender")
		}
		f := getFrame()
		f.n = headerSize + copy(f.buf[headerSize:], p[:min(len(p), MaxPayload)])
		s.segs.Put(s.freed, s.dataEnd, f)
		s.dataEnd++
		p = p[f.n-headerSize:]
		n += f.n - headerSize
	}
	s.pumpLocked()
	return n, nil
}

// Close ends the stream with one more data segment, empty and flagged as
// the last, which the core delivers like any other. It does not wait for
// acknowledgment — use Wait.
func (s *Sender) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		f := getFrame()
		f.n = headerSize
		s.segs.Put(s.freed, s.dataEnd, f)
		s.dataEnd++
		s.core.Supply(s.now(), s.dataEnd)
		s.core.Finish()
		s.settleLocked()
	}
	return nil
}

// Wait blocks until the whole stream, its end included, has been
// acknowledged, the sender has given up, or the timeout expires.
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
	case s.completed:
		return nil
	case s.err != nil:
		return s.err
	}
	return fmt.Errorf("mptcpnet: %d segments unacked at timeout", s.core.DataNxt()-s.core.DataUna())
}

// pumpLocked offers everything Write has queued to the core.
func (s *Sender) pumpLocked() {
	s.core.Supply(s.now(), s.dataEnd)
	s.settleLocked()
}

// settleLocked is the shell's bookkeeping after every core entry point:
// free the payload frames the data-level ACK has passed and wake a Write
// blocked on backpressure.
func (s *Sender) settleLocked() {
	for una := s.core.DataUna(); s.freed < una; s.freed++ {
		putFrame(*s.segs.At(s.freed))
	}
	s.cond.Broadcast()
}

// closeDoneLocked closes done, which releases the writer goroutines. The
// core has stopped the timers by now: it stops itself on completion, and
// abortLocked stops it.
func (s *Sender) closeDoneLocked() {
	if !s.doneClosed {
		s.doneClosed = true
		close(s.done)
	}
}

// abortLocked records err and gives up: the core found every path dead,
// or a subflow socket was closed under us.
func (s *Sender) abortLocked(err error) {
	if s.err == nil {
		s.err = err
	}
	s.core.Stop()
	s.closeDoneLocked()
	s.cond.Broadcast()
}

// Cwnd returns subflow i's congestion window in segments.
func (s *Sender) Cwnd(i int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Cwnd(i)
}

// Stats is one coherent snapshot of the sender's counters, taken under
// a single lock acquisition so the fields are mutually consistent. It
// replaces the former multi-return Stats()/SchedStats()/Corrupted()
// trio, whose separate calls could interleave with progress and whose
// counters therefore never described one instant.
type Stats struct {
	SegsSent  int64 // data segments given a subflow sequence (first transmissions, incl. reinjected and duplicated data, and the end-of-stream segment)
	SegsRetx  int64 // subflow-level retransmissions
	Reinjects int64 // data reinjections onto other subflows after RTOs
	OppRetx   int64 // §6 opportunistic retransmissions of a blocking segment
	Penalties int64 // §6 penalization window halvings
	Corrupt   int64 // inbound frames dropped by the checksum
	AcksRecvd int64 // ACK datagrams processed (the receiver delays ACKs: about one per two segments)
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
		Reinjects:   s.core.Reinjects,
		OppRetx:     s.core.OppRetx,
		Penalties:   s.core.Penalties,
		Corrupt:     s.corrupt,
		AcksRecvd:   s.acksRecvd,
		SubflowSent: make([]int64, len(s.subs)),
	}
	for i := range s.subs {
		c := s.core.Stats(i)
		st.SubflowSent[i] = c.PktsSent - c.PktsRetx
		st.SegsSent += st.SubflowSent[i]
		st.SegsRetx += c.PktsRetx
	}
	return st
}

// seg returns the payload frame of a written, not yet data-acknowledged
// sequence, or nil.
func (s *Sender) seg(d int64) *frame {
	if d < s.freed || d >= s.dataEnd {
		return nil
	}
	return *s.segs.At(d)
}

// --- proto.Shell: the core's side effects (all called with s.mu held) ---

// Emit builds the wire frame of one data transmission and queues it on
// the subflow's writer. The segment Close appended carries flagFin on
// every transmission, so whichever copy arrives first ends the stream.
func (s *Sender) Emit(sub int, seq, dataSeq int64, _ bool) {
	// Copy, never alias: the payload frame may be freed (and rewritten)
	// by the next data ACK while this transmission still sits in sendQ.
	// Data already acknowledged at the data level (a subflow-level
	// retransmission of it) travels as a bare header.
	w := getFrame()
	w.n = headerSize
	if p := s.seg(dataSeq); p != nil {
		w.n += copy(w.buf[headerSize:], p.buf[headerSize:p.n])
	}
	h := header{Type: typeData, Seq: seq, DataSeq: dataSeq, Plen: uint16(w.n - headerSize)}
	if s.closed && dataSeq == s.dataEnd-1 {
		h.Flags = flagFin
	}
	sf := s.subs[sub]
	sf.seal(w, h)
	if !sf.queueWrite(w) {
		putFrame(w)
	}
}

// Probe sends a zero-window probe.
func (s *Sender) Probe(sub int) {
	sf := s.subs[sub]
	w := getFrame()
	w.n = headerSize
	sf.seal(w, header{Type: typeProbe})
	if !sf.queueWrite(w) {
		putFrame(w)
	}
}

func (s *Sender) ArmRTO(sub int, d proto.Time) { s.subs[sub].rto.arm(d) }
func (s *Sender) StopRTO(sub int)              { s.subs[sub].rto.stop() }
func (s *Sender) ArmPersist(d proto.Time)      { s.persist.arm(d) }
func (s *Sender) StopPersist()                 { s.persist.stop() }

// Completed is the one completion predicate: the data-level ACK passed
// the end-of-stream segment. With an error the core gave up on a
// connection whose every path is dead, and the sender aborts with it.
func (s *Sender) Completed(err error) {
	if err != nil {
		s.abortLocked(err)
		return
	}
	s.completed = true
	s.closeDoneLocked()
}

// --- subflow I/O ---

// seal completes h with the subflow's identity and the timestamp to
// echo, and marshals and checksums it into f, whose payload is in place.
func (sf *sendSubflow) seal(f *frame, h header) {
	h.Subflow, h.ConnID, h.Echo = uint16(sf.id), sf.parent.connID, sf.parent.echoNow()
	h.marshal(f.buf[:])
	sealFrame(f.buf[:f.n])
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
		return false
	}
}

// writeLoop is the subflow's single writer: it drains the FIFO send
// queue so segments hit the socket in transmit order, and exits once the
// connection is done — whatever is still queued then repeats something
// already acknowledged, or belongs to an aborted stream. Each write is a
// run: the frame at the head of the queue and those already queued
// behind it of the same size (the last may be shorter), up to the
// socket's run limit; a larger frame starts the next run. Every frame is
// copied into the run and goes back to the pool at once.
func (sf *sendSubflow) writeLoop() {
	sk := sf.sock
	buf := make([]byte, 0, min(sk.runLen*(headerSize+MaxPayload), maxRunBytes))
	var next *frame // dequeued, but it starts the next run
	for {
		f := next
		if f == nil {
			select {
			case f = <-sf.sendQ:
			case <-sf.parent.done:
				return
			}
		}
		size, last := f.n, f.n
		b := append(buf[:0], f.buf[:f.n]...)
		putFrame(f)
		next = nil
	run:
		for n := 1; n < sk.runLen && last == size; n++ {
			select {
			case f = <-sf.sendQ:
			default:
				break run
			}
			if f.n > size || len(b)+f.n > cap(b) {
				next = f
				break
			}
			last = f.n
			b = append(b, f.buf[:f.n]...)
			putFrame(f)
		}
		sk.writeRun(b, size, sf.remote)
	}
}

// readLoop consumes ACKs for one subflow, a run at a time under one
// acquisition of the connection lock.
func (sf *sendSubflow) readLoop() {
	s := sf.parent
	// A closed subflow socket means no ACK can ever arrive here again: if
	// the stream is not already finished, abort so the writer goroutine and
	// the timers are released rather than leaked with an abandoned sender.
	defer func() {
		s.mu.Lock()
		if !s.doneClosed {
			s.abortLocked(fmt.Errorf("mptcpnet: subflow %d socket closed", sf.id))
		}
		s.mu.Unlock()
	}()
	for {
		b, size, _, err := sf.sock.readRun()
		if err != nil {
			return // socket closed
		}
		s.mu.Lock()
		for off := 0; off < len(b); off += size {
			var h header
			if err := h.unmarshal(b[off:min(off+size, len(b))]); err != nil {
				if errors.Is(err, errBadFrame) {
					s.corrupt++
				}
				continue
			}
			if h.ConnID == s.connID && h.Type == typeAck {
				s.onAckLocked(sf, &h)
			}
		}
		s.mu.Unlock()
	}
}

// onAckLocked decodes one ACK for the core.
func (s *Sender) onAckLocked(sf *sendSubflow, h *header) {
	s.acksRecvd++
	a := proto.Ack{Sub: sf.id, Seq: h.Seq, DataAck: h.DataSeq, Window: int64(h.Window), Sack: -1}
	if h.Flags&flagSack != 0 {
		a.Sack = h.Aux
	}
	if h.Echo != 0 { // 0: a window update, which echoes no transmission
		a.RTT = proto.Time(time.Duration(s.echoNow()-h.Echo) * time.Microsecond)
	}
	s.core.OnAck(s.now(), a)
	s.settleLocked()
}

// onRTO is the retransmission timer's callback.
func (sf *sendSubflow) onRTO() {
	s := sf.parent
	s.mu.Lock()
	defer s.mu.Unlock()
	if !sf.rto.expired() {
		return
	}
	now := s.now()
	s.core.OnRTO(now, sf.id)
	// The core's OnRTO does not pump (in the simulator the other
	// subflows' ACK clock does); here they may all be idle, so the
	// reinjections must leave now.
	s.core.Pump(now)
	s.settleLocked()
}

// onPersist is the persist timer's callback.
func (s *Sender) onPersist() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist.expired() {
		s.core.OnPersist(s.now())
	}
}

var _ io.WriteCloser = (*Sender)(nil)
var _ proto.Shell = (*Sender)(nil)
