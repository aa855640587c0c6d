package mptcpnet

import "sync"

// frame is the one buffer type of the data path: a fixed-size datagram
// (header + payload) with its length and a read cursor. Frames come from
// framePool and have a single owner at every moment:
//
//   - Sender.Write copies application bytes into a payload frame, which
//     the send ring owns until the data-level ACK passes it;
//   - Emit copies that payload (under mu — never aliases it) into a wire
//     frame, which passes through sendQ to writeLoop; the writer copies
//     it into its run buffer and frees it at once;
//   - the receiver's readLoop copies the payload of each new segment of
//     a run into a frame that the reorder ring owns until Read has
//     consumed it.
//
// Nothing touches a frame after putFrame. Frames still held when a
// connection is torn down are left to the garbage collector.
type frame struct {
	buf [headerSize + MaxPayload]byte
	n   int // datagram length: header + payload
	off int // Read's cursor into buf (receiver only)
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

func getFrame() *frame  { return framePool.Get().(*frame) }
func putFrame(f *frame) { framePool.Put(f) }

// ring is a power-of-two circular buffer indexed by sequence number, the
// shape of the protocol core's scoreboard: the owner keeps the live range
// [lo, hi) and the ring doubles on demand, so it is sized by what is
// actually outstanding, never by a window the peer advertises.
type ring[T any] struct{ buf []T }

// at returns seq's slot. Only valid for lo <= seq < lo+len(buf).
func (r *ring[T]) at(seq int64) *T { return &r.buf[seq&int64(len(r.buf)-1)] }

// put stores v at seq, growing the ring until [lo, seq] fits.
func (r *ring[T]) put(lo, seq int64, v T) {
	if n := int64(len(r.buf)); seq-lo >= n {
		old := r.buf
		for n = max(n, 16); n <= seq-lo; n *= 2 {
		}
		r.buf = make([]T, n)
		for s := lo; s < lo+int64(len(old)); s++ {
			*r.at(s) = old[s&int64(len(old)-1)]
		}
	}
	*r.at(seq) = v
}
