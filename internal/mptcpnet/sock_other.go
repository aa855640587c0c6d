//go:build !linux

package mptcpnet

import "net"

// probeRuns: runs are a Linux kernel feature, so elsewhere every socket
// sends and receives one datagram per call.
func probeRuns(*net.UDPConn) (gso, gro bool) { return false, false }

// segmentControl and groSize are never reached without the options.
func segmentControl(oob []byte, _ int) []byte { return oob }
func groSize([]byte) int                      { return 0 }
