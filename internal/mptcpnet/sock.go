package mptcpnet

import (
	"net"
	"net/netip"
	"sync/atomic"
)

// A run is a burst of datagrams for one destination laid back to back in
// one buffer, every one size bytes long but the last, which may be
// shorter: the unit of one socket system call. On a *net.UDPConn whose
// kernel grants UDP_SEGMENT the kernel cuts a run into its datagrams
// (GSO), and on one that grants UDP_GRO it hands back what arrived
// together as one run with the size in a control message. Any other
// PacketConn — chaos.Path, the test fakes, a caller's wrapper — gets one
// WriteTo or ReadFrom per datagram. writeRun and readRun are the only
// place the two paths differ, and the only socket I/O in the package.

const (
	// maxRunSegs caps a run's datagrams: older kernels' UDP_MAX_SEGMENTS
	// (newer ones take 128), and the most UDP GRO joins.
	maxRunSegs = 64
	// maxRunBytes caps a run's length: the largest UDP payload IPv4 carries.
	maxRunBytes = 1<<16 - 1 - 20 - 8
)

// sock is one subflow socket. A run is written by one goroutine per
// socket (the sender's writeLoop, the receiver's readLoop); a single
// datagram, which carries no control message, may come from any.
type sock struct {
	pc     net.PacketConn
	udp    *net.UDPConn // pc, when it is one
	gso    atomic.Bool  // the kernel takes runs; cleared for good by a refused one
	runLen int          // the most datagrams a caller puts in one run: maxRunSegs with GSO, 1 without
	oob    []byte       // the UDP_SEGMENT control message, the run writer's scratch

	// The reader's: the buffer a run (with GRO) or one datagram lands in,
	// the control-message buffer, and the last source, kept as a net.Addr
	// that is rebuilt only when the source changes.
	gro     bool
	rbuf    []byte
	roob    []byte
	fromAP  netip.AddrPort
	fromUDP net.Addr
}

// newSock wraps pc. A *net.UDPConn is asked for both kernel options, and
// the 64 KiB run buffer is allocated only for one that grants UDP_GRO.
// UDP_GRO stays enabled on the caller's socket.
func newSock(pc net.PacketConn) *sock {
	s := &sock{pc: pc, runLen: 1}
	if c, ok := pc.(*net.UDPConn); ok {
		gso, gro := probeRuns(c)
		s.udp, s.gro = c, gro
		if gso {
			s.gso.Store(true)
			s.runLen, s.oob = maxRunSegs, make([]byte, 64)
		}
	}
	if s.gro {
		s.rbuf, s.roob = make([]byte, 1<<16), make([]byte, 64)
	} else {
		s.rbuf = make([]byte, headerSize+MaxPayload) // a longer datagram is truncated and fails the checksum
	}
	return s
}

// writeRun sends the run b of size-byte datagrams to to: one system call
// with GSO, one WriteTo per datagram otherwise. Errors are the path's
// losses. A run the kernel refuses to segment (EIO from an egress device
// without checksum offload, or a run longer than it cuts) is sent again
// datagram by datagram, and so is every later one on this socket.
func (s *sock) writeRun(b []byte, size int, to net.Addr) {
	if len(b) > size && s.gso.Load() {
		ua, _ := to.(*net.UDPAddr)
		ap := ua.AddrPort()
		ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
		if _, _, err := s.udp.WriteMsgUDPAddrPort(b, segmentControl(s.oob, size), ap); err == nil {
			return
		}
		s.gso.Store(false)
	}
	for len(b) > 0 {
		d := b[:min(size, len(b))]
		s.pc.WriteTo(d, to) //nolint:errcheck // lossy path semantics
		b = b[len(d):]
	}
}

// readRun blocks for the next run: b holds its datagrams back to back,
// size bytes each but the last. Without GRO a run is one datagram. b is
// valid until the next call.
func (s *sock) readRun() (b []byte, size int, from net.Addr, err error) {
	if !s.gro {
		n, from, err := s.pc.ReadFrom(s.rbuf)
		return s.rbuf[:n], n, from, err
	}
	n, oobn, _, ap, err := s.udp.ReadMsgUDPAddrPort(s.rbuf, s.roob)
	if err != nil {
		return nil, 0, nil, err
	}
	if ap != s.fromAP {
		s.fromAP, s.fromUDP = ap, net.UDPAddrFromAddrPort(ap)
	}
	if size = groSize(s.roob[:oobn]); size <= 0 || size > n {
		size = n // not coalesced: one datagram
	}
	return s.rbuf[:n], size, s.fromUDP, nil
}
