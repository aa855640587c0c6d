// Package mptcpnet is a userspace Multipath TCP implementation over UDP,
// realising the protocol design of §6 of the paper with real sockets and
// goroutines. It has:
//
//   - one UDP subflow per path, each with its own sequence space and
//     RFC 6298-style retransmission timer;
//   - a connection-level data sequence number on every data segment and
//     an explicit data acknowledgment on every ACK (§6 shows inferring
//     data ACKs from subflow ACKs is unsound); the end of the stream is
//     the last data sequence, an empty flagged segment delivered like
//     the rest;
//   - a single shared receive buffer whose window is advertised relative
//     to the data-level cumulative ACK;
//   - data-level reinjection after a subflow timeout, so a dead path
//     cannot strand the stream;
//   - coupled congestion control from internal/core — the identical
//     algorithm code that drives the packet-level simulator;
//   - pluggable packet scheduling from internal/sched (minRTT by
//     default, the Linux MPTCP choice) plus the §6 receive-buffer-
//     blocking countermeasures — opportunistic retransmission and
//     subflow penalization — as composable Config options, shared with
//     the simulator stack.
//
// The package substitutes for the paper's Linux kernel implementation:
// real multihomed interfaces are replaced by multiple UDP 5-tuples
// (optionally shaped by a chaos.Path fault model), which is exactly the
// kind of path diversity the paper exploits via ECMP in §7. On Linux a
// raw *net.UDPConn carries a run of datagrams per system call (UDP GSO
// and GRO, sock.go).
package mptcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Segment types.
const (
	typeData  = 1
	typeAck   = 2
	typeProbe = 3 // zero-window probe
)

const (
	flagSack = 1 << 0 // ACK: aux selectively acknowledges a subflow sequence
	flagFin  = 1 << 1 // DATA: the stream ends with this data sequence
)

// headerSize is the fixed wire header length in bytes.
const headerSize = 50

// sumOffset is the byte offset of the frame checksum within the header.
const sumOffset = 46

// MaxPayload is the data payload carried per segment. It is chosen so
// header+payload fits comfortably in a 1500-byte MTU over UDP/IP.
const MaxPayload = 1200

// header is the wire header shared by all segment types.
//
//	0   type(1) flags(1) subflow(2)
//	4   connID(8)
//	12  seq(8)      subflow sequence (DATA) / cumulative subflow ack (ACK)
//	20  dataSeq(8)  data sequence (DATA) / cumulative data ack (ACK)
//	28  aux(8)      SACK seq (ACK)
//	36  window(4)   receive window in segments (ACK)
//	40  echo(4)     truncated timestamp echo, microseconds
//	44  plen(2)
//	46  sum(4)      frame checksum (CRC-32C over the whole datagram
//	                with this field zeroed), stamped by sealFrame
type header struct {
	Type    byte
	Flags   byte
	Subflow uint16
	ConnID  uint64
	Seq     int64
	DataSeq int64
	Aux     int64
	Window  uint32
	Echo    uint32
	Plen    uint16
}

var (
	errShortPacket = errors.New("mptcpnet: short packet")
	errBadFrame    = errors.New("mptcpnet: frame checksum mismatch")
)

// crcTable backs the frame checksum. Castagnoli rather than IEEE: it has
// hardware support on amd64/arm64, and UDP's own 16-bit checksum is weak
// enough (and optional on IPv4) that corrupted datagrams do reach us.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// zeroSum stands in for the checksum field while summing. Package-level:
// a local array escapes through crc32.Update, one heap object per call.
var zeroSum [headerSize - sumOffset]byte

// frameSum computes the frame checksum over the whole datagram with the
// checksum field treated as zero.
func frameSum(buf []byte) uint32 {
	sum := crc32.Update(0, crcTable, buf[:sumOffset])
	sum = crc32.Update(sum, crcTable, zeroSum[:])
	return crc32.Update(sum, crcTable, buf[headerSize:])
}

// sealFrame stamps the frame checksum into a fully assembled datagram
// (marshalled header plus payload). Every frame must be sealed after its
// payload is in place and before it hits the wire; unmarshal rejects
// unsealed or damaged frames.
func sealFrame(buf []byte) {
	binary.BigEndian.PutUint32(buf[sumOffset:], frameSum(buf))
}

func (h *header) marshal(buf []byte) []byte {
	buf = buf[:headerSize]
	buf[0] = h.Type
	buf[1] = h.Flags
	binary.BigEndian.PutUint16(buf[2:], h.Subflow)
	binary.BigEndian.PutUint64(buf[4:], h.ConnID)
	binary.BigEndian.PutUint64(buf[12:], uint64(h.Seq))
	binary.BigEndian.PutUint64(buf[20:], uint64(h.DataSeq))
	binary.BigEndian.PutUint64(buf[28:], uint64(h.Aux))
	binary.BigEndian.PutUint32(buf[36:], h.Window)
	binary.BigEndian.PutUint32(buf[40:], h.Echo)
	binary.BigEndian.PutUint16(buf[44:], h.Plen)
	// The checksum field starts zeroed (buffers may be recycled); the
	// caller seals the frame once the payload is appended.
	binary.BigEndian.PutUint32(buf[sumOffset:], 0)
	return buf
}

func (h *header) unmarshal(buf []byte) error {
	if len(buf) < headerSize {
		return errShortPacket
	}
	// Verify before parsing: a frame damaged in flight (the chaos layer's
	// bit-corruption, or a real-world flipped bit surviving UDP's weak
	// checksum) must be dropped, not decoded into garbage sequence state.
	if binary.BigEndian.Uint32(buf[sumOffset:]) != frameSum(buf) {
		return errBadFrame
	}
	h.Type = buf[0]
	h.Flags = buf[1]
	h.Subflow = binary.BigEndian.Uint16(buf[2:])
	h.ConnID = binary.BigEndian.Uint64(buf[4:])
	h.Seq = int64(binary.BigEndian.Uint64(buf[12:]))
	h.DataSeq = int64(binary.BigEndian.Uint64(buf[20:]))
	h.Aux = int64(binary.BigEndian.Uint64(buf[28:]))
	h.Window = binary.BigEndian.Uint32(buf[36:])
	h.Echo = binary.BigEndian.Uint32(buf[40:])
	h.Plen = binary.BigEndian.Uint16(buf[44:])
	if int(h.Plen) > len(buf)-headerSize {
		return fmt.Errorf("mptcpnet: payload length %d exceeds packet", h.Plen)
	}
	return nil
}
