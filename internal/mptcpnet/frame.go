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
