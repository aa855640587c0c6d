package mptcpnet

// Run-boundary tests over real loopback sockets: what writeLoop
// coalesces, what the kernel carries as one run, and what readRun and the
// receiver's read loop make of it. They skip where the kernel grants
// neither UDP_SEGMENT nor UDP_GRO.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"
)

// rawUDP opens a loopback *net.UDPConn with 4 MiB socket buffers (the
// kernel caps the request at rmem_max/wmem_max), closed at cleanup.
func rawUDP(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.SetReadBuffer(4 << 20); err != nil {
		t.Fatal(err)
	}
	if err := c.SetWriteBuffer(4 << 20); err != nil {
		t.Fatal(err)
	}
	return c
}

// skipWithoutRuns skips the test unless c's kernel grants both options.
func skipWithoutRuns(t *testing.T, c *net.UDPConn) {
	t.Helper()
	if gso, gro := probeRuns(c); !gso || !gro {
		t.Skipf("the kernel grants UDP_SEGMENT %t and UDP_GRO %t: no runs", gso, gro)
	}
}

// runSock wraps c, which must take runs both ways.
func runSock(t *testing.T, c *net.UDPConn) *sock {
	t.Helper()
	skipWithoutRuns(t, c)
	return newSock(c)
}

// testWriter is a sender subflow over c whose writeLoop has not started,
// so that a test can fill its queue first.
func testWriter(t *testing.T, c *net.UDPConn, to net.Addr) *sendSubflow {
	t.Helper()
	s := &Sender{connID: 5, start: time.Now(), done: make(chan struct{})}
	t.Cleanup(func() { close(s.done) })
	return &sendSubflow{sock: runSock(t, c), remote: to, parent: s, sendQ: make(chan *frame, sendQueueCap)}
}

// enqueue seals h around payload into a frame on sf's queue, as Emit and
// Probe do, and returns a copy of the datagram.
func enqueue(sf *sendSubflow, h header, payload []byte) []byte {
	f := getFrame()
	f.n = headerSize + copy(f.buf[headerSize:], payload)
	h.Plen = uint16(len(payload))
	sf.seal(f, h)
	sf.sendQ <- f
	return append([]byte(nil), f.buf[:f.n]...)
}

// readDatagrams reads runs from sk, the reading end of c, until it holds
// n datagrams, and returns them with the datagram count of each run.
func readDatagrams(t *testing.T, c *net.UDPConn, sk *sock, n int) (dgrams [][]byte, runs []int) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	for len(dgrams) < n {
		b, size, _, err := sk.readRun()
		if err != nil {
			t.Fatalf("after %d of %d datagrams: %v", len(dgrams), n, err)
		}
		k := 0
		for off := 0; off < len(b); off += size {
			dgrams = append(dgrams, append([]byte(nil), b[off:min(off+size, len(b))]...))
			k++
		}
		runs = append(runs, k)
	}
	return dgrams, runs
}

func sameDatagrams(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d datagrams arrived, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("datagram %d: %d bytes differing from the %d queued", i, len(got[i]), len(want[i]))
		}
	}
}

// Everything a subflow queue can hold, in one queue: full segments, the
// stream's short tail, the header-only end-of-stream segment, a probe and
// a bare-header retransmission of acknowledged data. They arrive in
// queue order byte for byte, and the runs break where the sizes say: a
// shorter frame ends a run, a larger one starts the next.
func TestRunsKeepQueueOrder(t *testing.T) {
	a, b := rawUDP(t), rawUDP(t)
	rx := runSock(t, b)
	sf := testWriter(t, a, b.LocalAddr())
	full := func(seq int64) []byte {
		p := make([]byte, MaxPayload)
		rand.New(rand.NewSource(seq)).Read(p)
		return p
	}
	var want [][]byte
	q := func(h header, payload []byte) { want = append(want, enqueue(sf, h, payload)) }
	for seq := int64(0); seq < 3; seq++ {
		q(header{Type: typeData, Seq: seq, DataSeq: seq}, full(seq))
	}
	q(header{Type: typeData, Seq: 3, DataSeq: 3}, full(3)[:300])
	q(header{Type: typeData, Flags: flagFin, Seq: 4, DataSeq: 4}, nil)
	q(header{Type: typeProbe}, nil)
	q(header{Type: typeData, Seq: 1, DataSeq: 1}, nil)
	for seq := int64(5); seq < 7; seq++ {
		q(header{Type: typeData, Seq: seq, DataSeq: seq}, full(seq))
	}
	go sf.writeLoop()
	got, runs := readDatagrams(t, b, rx, len(want))
	sameDatagrams(t, got, want)
	if fmt.Sprint(runs) != "[4 3 2]" {
		t.Errorf("runs of %v datagrams, want [4 3 2]", runs)
	}
}

// A run stops at maxRunBytes (52 full segments) or at maxRunSegs
// datagrams (64 header-only frames), whichever comes first.
func TestRunsAtMost64Datagrams(t *testing.T) {
	a, b := rawUDP(t), rawUDP(t)
	rx := runSock(t, b)
	sf := testWriter(t, a, b.LocalAddr())
	var want [][]byte
	for seq := int64(0); seq < maxRunSegs+1; seq++ {
		want = append(want, enqueue(sf, header{Type: typeData, Seq: seq, DataSeq: seq}, make([]byte, MaxPayload)))
	}
	for i := 0; i < 2*maxRunSegs+1; i++ {
		want = append(want, enqueue(sf, header{Type: typeProbe, Seq: int64(i)}, nil))
	}
	go sf.writeLoop()
	got, runs := readDatagrams(t, b, rx, len(want))
	sameDatagrams(t, got, want)
	// 52 full segments fill a run's bytes; the 13 left take the first
	// probe along as their shorter last datagram; 128 probes remain.
	if fmt.Sprint(runs) != "[52 14 64 64]" {
		t.Errorf("runs of %v datagrams, want [52 14 64 64]", runs)
	}
}

// One damaged datagram in a run costs that datagram alone: it is counted
// and dropped, the others go to the core, and resending it fills the hole.
func TestRunCorruptDatagramDropsOnlyItself(t *testing.T) {
	a, b := rawUDP(t), rawUDP(t)
	tx := runSock(t, a)
	rx := NewReceiver(5, []net.PacketConn{b}, 64)
	defer rx.Close()
	const segs, bad, size = 8, 3, headerSize + MaxPayload
	data := make([]byte, segs*MaxPayload)
	rand.New(rand.NewSource(1)).Read(data)
	seg := func(i int) []byte {
		return segFrame(5, int64(i), int64(i), 0, string(data[i*MaxPayload:(i+1)*MaxPayload]))
	}
	var run []byte
	for i := 0; i < segs; i++ {
		run = append(run, seg(i)...)
	}
	run[bad*size+headerSize+17] ^= 0x40
	tx.writeRun(run, size, b.LocalAddr())
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if recvd, _, _ := rx.Stats(); recvd == segs-1 {
			break
		}
		if time.Now().After(deadline) {
			recvd, _, _ := rx.Stats()
			t.Fatalf("%d of the run's %d intact segments reached the core", recvd, segs-1)
		}
	}
	if n := rx.Corrupted(); n != 1 {
		t.Errorf("Corrupted() = %d, want 1", n)
	}
	if n := received(rx); n != bad {
		t.Errorf("%d segments in order, want the %d ahead of the damaged one", n, bad)
	}
	tx.writeRun(seg(bad), size, b.LocalAddr())
	got := make([]byte, len(data))
	if _, err := io.ReadFull(rx, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("stream after the resend: %v, equal %t", err, bytes.Equal(got, data))
	}
}

// A run the kernel will not segment — 65 full datagrams are more than one
// UDP payload can hold, and more than older kernels cut — is sent again
// datagram by datagram, and the socket sends every later run that way.
func TestRunRefusedByKernelFallsBackToDatagrams(t *testing.T) {
	a, b := rawUDP(t), rawUDP(t)
	tx, rx := runSock(t, a), runSock(t, b)
	const size = headerSize + MaxPayload
	run := make([]byte, (maxRunSegs+1)*size)
	rand.New(rand.NewSource(2)).Read(run)
	var want [][]byte
	for off := 0; off < len(run); off += size {
		want = append(want, run[off:off+size])
	}
	tx.writeRun(run, size, b.LocalAddr())
	if tx.gso.Load() {
		t.Fatal("the socket still sends runs after the kernel refused one")
	}
	got, runs := readDatagrams(t, b, rx, len(want))
	sameDatagrams(t, got, want)
	if len(runs) != len(want) {
		t.Errorf("the refused run arrived as %d runs, want one per datagram", len(runs))
	}
	tx.writeRun(run[:2*size], size, b.LocalAddr())
	if got, runs = readDatagrams(t, b, rx, 2); len(runs) != 2 {
		t.Errorf("a run after the refusal arrived as %d runs, want 2 datagrams", len(runs))
	}
	sameDatagrams(t, got, want[:2])
}
