//go:build linux

package mptcpnet

import (
	"encoding/binary"
	"net"
	"syscall"
	"unsafe"
)

// The two UDP socket options of linux/udp.h, which package syscall lacks.
const (
	udpSegment = 103 // UDP_SEGMENT: cut what one sendmsg carries into datagrams of this size
	udpGRO     = 104 // UDP_GRO: hand back datagrams that arrived together as one run
)

// probeRuns asks c's kernel whether it sends runs (UDP_SEGMENT can be
// read) and receives them (UDP_GRO can be switched on — which the probe
// does).
func probeRuns(c *net.UDPConn) (gso, gro bool) {
	rc, err := c.SyscallConn()
	if err != nil {
		return false, false
	}
	rc.Control(func(fd uintptr) { //nolint:errcheck // a failed Control leaves both false
		_, err := syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment)
		gso = err == nil
		gro = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1) == nil
	})
	return gso, gro
}

// segmentControl writes into oob the UDP_SEGMENT control message for
// datagrams of size bytes and returns it.
func segmentControl(oob []byte, size int) []byte {
	oob = oob[:syscall.CmsgSpace(2)]
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level, h.Type = syscall.IPPROTO_UDP, udpSegment
	h.SetLen(syscall.CmsgLen(2))
	binary.NativeEndian.PutUint16(oob[syscall.CmsgLen(0):], uint16(size))
	return oob
}

// groSize returns the datagram size a UDP_GRO control message in oob
// reports, or 0 when there is none (what arrived is one datagram).
func groSize(oob []byte) int {
	for len(oob) >= syscall.CmsgLen(4) {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
		n := int(h.Len)
		if n < syscall.CmsgLen(0) || n > len(oob) {
			return 0
		}
		if h.Level == syscall.IPPROTO_UDP && h.Type == udpGRO && n >= syscall.CmsgLen(4) {
			return int(int32(binary.NativeEndian.Uint32(oob[syscall.CmsgLen(0):])))
		}
		oob = oob[min(syscall.CmsgSpace(n-syscall.CmsgLen(0)), len(oob)):]
	}
	return 0
}
