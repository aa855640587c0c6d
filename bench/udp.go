package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mptcp/internal/chaos"
	"mptcp/internal/mptcpnet"
)

const (
	sockBufBytes    = 4 * mib
	minRcvBufBytes  = 1 * mib
	rxBufSegments   = 512
	transferTimeout = 60 * time.Second
	connID          = 77
)

// payload is the generated byte stream of one transfer: a seeded 1 MiB
// block repeated, each repetition stamped with its index so no two
// blocks are equal.
type payload struct {
	block []byte
	total int
}

func newPayload(seed int64, total int) *payload {
	n := mib
	if total < n {
		n = total
	}
	p := &payload{block: make([]byte, n), total: total}
	rand.New(rand.NewSource(seed)).Read(p.block)
	return p
}

// each calls fn with every chunk of the stream in order. The chunk is
// only valid during the call.
func (p *payload) each(fn func([]byte) error) error {
	for off, i := 0, uint64(0); off < p.total; i++ {
		chunk := p.block
		if rest := p.total - off; rest < len(chunk) {
			chunk = chunk[:rest]
		}
		if len(chunk) >= 8 {
			binary.LittleEndian.PutUint64(chunk, i)
		}
		if err := fn(chunk); err != nil {
			return err
		}
		off += len(chunk)
	}
	return nil
}

func (p *payload) sum() []byte {
	h := sha256.New()
	p.each(func(b []byte) error { h.Write(b); return nil }) //nolint:errcheck // hash.Write never fails
	return h.Sum(nil)
}

// countConn is the bench-owned PacketConn wrapper of the traced runs: it
// counts writes and the total time spent inside the inner WriteTo — one
// pair of counters, not a span per datagram.
type countConn struct {
	net.PacketConn
	writes atomic.Int64
	ns     atomic.Int64
}

func (c *countConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	t := time.Now()
	n, err := c.PacketConn.WriteTo(b, addr)
	c.ns.Add(int64(time.Since(t)))
	c.writes.Add(1)
	return n, err
}

// memConn is one end of an in-memory datagram pipe: the same protocol
// code runs over it with no socket underneath, which isolates the
// protocol's cost from the kernel's.
type memConn struct {
	in   chan []byte
	peer *memConn
	done chan struct{}
	once sync.Once
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

func newMemPair() (*memConn, *memConn) {
	// 4096 datagrams: several times the 512-segment receive window that
	// bounds what can be in flight, so the pipe itself never drops.
	a := &memConn{in: make(chan []byte, 4096), done: make(chan struct{})}
	b := &memConn{in: make(chan []byte, 4096), done: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

func (c *memConn) WriteTo(b []byte, _ net.Addr) (int, error) {
	d := append([]byte(nil), b...)
	select {
	case c.peer.in <- d:
	case <-c.done:
		return 0, net.ErrClosed
	default: // full: dropped, as a socket buffer would
	}
	return len(b), nil
}

func (c *memConn) ReadFrom(b []byte) (int, net.Addr, error) {
	select {
	case d := <-c.in:
		return copy(b, d), memAddr{}, nil
	case <-c.done:
		return 0, nil, net.ErrClosed
	}
}

func (c *memConn) Close() error                     { c.once.Do(func() { close(c.done) }); return nil }
func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// xferOpts selects the path under one two-subflow connection.
type xferOpts struct {
	bytes  int
	seed   int64 // payload pattern
	cseed  int64 // chaos.Path seeds (lossy only)
	lossy  bool  // chaos.Path WiFi+3G emulation over the sockets
	inMem  bool  // in-memory pipes instead of sockets
	traced bool  // wrap the PacketConns in countConn
}

// transfer is a prepared connection: payload generated and hashed,
// sockets open and sized, endpoints constructed, nothing sent yet.
type transfer struct {
	pay     *payload
	want    []byte
	closers []io.Closer
	tx      *mptcpnet.Sender
	rx      *mptcpnet.Receiver

	rcvBuf     int // effective SO_RCVBUF of the receiving sockets, bytes
	goroutines int // NumGoroutine delta with the connection open
	built      time.Time
	// Traced runs only.
	sockConns  []*countConn // innermost: around the socket (or memConn)
	chaosConns []*countConn // around the data-direction chaos.Path
}

// lossyPaths are the §5 wireless client's two paths as chaos.Path fault
// models: data direction first, ACK direction second.
var lossyPaths = [2][2]chaos.PathConfig{
	{ // WiFi
		{Delay: 5 * time.Millisecond, LossRate: 0.01, RateBps: 16e6},
		{Delay: 5 * time.Millisecond, LossRate: 0.002},
	},
	{ // 3G
		{Delay: 40 * time.Millisecond, LossRate: 0.001, RateBps: 2e6},
		{Delay: 40 * time.Millisecond, LossRate: 0.002},
	},
}

// rcvBufOf reads back the effective SO_RCVBUF: the kernel silently caps
// a request at net.core.rmem_max, so asking is not enough.
func rcvBufOf(c *net.UDPConn) (int, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return 0, err
	}
	var v int
	var serr error
	if err := rc.Control(func(fd uintptr) {
		v, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		return 0, err
	}
	return v, serr
}

func openUDP() (*net.UDPConn, error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := pc.(*net.UDPConn)
	if err := c.SetReadBuffer(sockBufBytes); err != nil {
		c.Close()
		return nil, fmt.Errorf("SetReadBuffer: %w", err)
	}
	if err := c.SetWriteBuffer(sockBufBytes); err != nil {
		c.Close()
		return nil, fmt.Errorf("SetWriteBuffer: %w", err)
	}
	return c, nil
}

// prepare builds the connection. Everything here is set-up: it happens
// before the first timed instruction.
func prepare(o xferOpts) (t *transfer, err error) {
	t = &transfer{pay: newPayload(o.seed, o.bytes)}
	t.want = t.pay.sum()
	defer func() {
		if err != nil {
			t.close()
		}
	}()

	var sConns, rConns []net.PacketConn
	var remotes []net.Addr
	for i := 0; i < 2; i++ {
		var s, r net.PacketConn
		var raddr net.Addr = memAddr{}
		if o.inMem {
			a, b := newMemPair()
			s, r = a, b
			t.closers = append(t.closers, a, b)
		} else {
			us, err := openUDP()
			if err != nil {
				return t, err
			}
			t.closers = append(t.closers, us)
			ur, err := openUDP()
			if err != nil {
				return t, err
			}
			t.closers = append(t.closers, ur)
			if t.rcvBuf, err = rcvBufOf(ur); err != nil {
				return t, fmt.Errorf("reading SO_RCVBUF: %w", err)
			}
			if !o.lossy && t.rcvBuf < minRcvBufBytes {
				return t, fmt.Errorf("effective SO_RCVBUF is %d bytes, below %d: an unshaped loopback transfer "+
					"overruns a small socket buffer and then stalls (see README, Known limits); "+
					"raise net.core.rmem_max", t.rcvBuf, minRcvBufBytes)
			}
			s, r, raddr = us, ur, ur.LocalAddr()
		}
		if o.traced {
			cs, cr := &countConn{PacketConn: s}, &countConn{PacketConn: r}
			t.sockConns = append(t.sockConns, cs, cr)
			s, r = cs, cr
		}
		if o.lossy {
			ps := chaos.New(s, lossyPaths[i][0], o.cseed*4+int64(2*i))
			pr := chaos.New(r, lossyPaths[i][1], o.cseed*4+int64(2*i+1))
			t.closers = append(t.closers, ps, pr)
			s, r = ps, pr
			if o.traced {
				cc := &countConn{PacketConn: s}
				t.chaosConns = append(t.chaosConns, cc)
				s = cc
			}
		}
		sConns, rConns, remotes = append(sConns, s), append(rConns, r), append(remotes, raddr)
	}

	before := runtime.NumGoroutine()
	t.built = time.Now()
	t.rx = mptcpnet.NewReceiver(connID, rConns, rxBufSegments)
	t.tx = mptcpnet.NewSender(connID, sConns, remotes, mptcpnet.Config{})
	t.goroutines = runtime.NumGoroutine() - before
	return t, nil
}

// close releases the sockets (closing a chaos.Path closes its socket
// too; closing twice is harmless).
func (t *transfer) close() {
	if t.rx != nil {
		t.rx.Close()
	}
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i].Close()
	}
}

// xferResult is what one transfer measured.
type xferResult struct {
	meterResult
	segments    int64
	stats       mptcpnet.Stats
	rxRecvd     int64
	rxDup       int64
	writeBlock  time.Duration // time the application's Write calls took
	connSetup   time.Duration // constructors -> first byte read
	closeDur    time.Duration // Close call (after the last Write) -> Wait returned
	sockWrites  int64
	sockWriteNs int64
	pathWrites  int64
	pathWriteNs int64
	err         error // non-nil: the transfer failed (deadline, hash mismatch, I/O error)
}

// run streams the payload through the connection and checks it. The
// timed region is first Write -> Close -> io.EOF on Read -> Wait.
func (t *transfer) run(rec *recorder, parent int) xferResult {
	var res xferResult
	// One Write per chunk, each cut into MaxPayload segments.
	t.pay.each(func(b []byte) error { //nolint:errcheck // the callback never fails
		res.segments += int64((len(b) + mptcpnet.MaxPayload - 1) / mptcpnet.MaxPayload)
		return nil
	})
	deadline := time.NewTimer(transferTimeout)
	defer deadline.Stop()

	var (
		got       hash.Hash = sha256.New()
		gotBytes  int
		firstByte time.Time
		closeAt   time.Time
		closeSpan int
		readErr   error
		writeErr  error
		wg        sync.WaitGroup
	)
	m := startMeter()
	wsp := rec.begin("write", parent)
	wg.Add(2)
	go func() {
		defer wg.Done()
		writeErr = t.pay.each(func(b []byte) error {
			w0 := time.Now()
			_, err := t.tx.Write(b)
			res.writeBlock += time.Since(w0)
			return err
		})
		rec.end(wsp)
		// Close queues the FIN the reader's io.EOF depends on.
		closeSpan = rec.begin("close", parent)
		closeAt = time.Now()
		if err := t.tx.Close(); writeErr == nil {
			writeErr = err
		}
	}()
	dsp := rec.begin("drain", parent)
	go func() {
		defer wg.Done()
		defer rec.end(dsp)
		buf := make([]byte, 64<<10)
		for {
			n, err := t.rx.Read(buf)
			if n > 0 {
				if gotBytes == 0 {
					firstByte = time.Now()
				}
				gotBytes += n
				got.Write(buf[:n])
			}
			if err != nil {
				if err != io.EOF {
					readErr = err
				}
				return
			}
		}
	}()
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()

	select {
	case <-drained:
	case <-deadline.C:
		// Closing the sockets aborts the sender and unblocks the reader,
		// so a stalled transfer counts as a failure instead of hanging.
		t.close()
		<-drained
		res.err = fmt.Errorf("deadline: %d of %d bytes after %v", gotBytes, t.pay.total, transferTimeout)
		res.meterResult = m.stop()
		return res
	}
	waitErr := t.tx.Wait(transferTimeout)
	res.closeDur = time.Since(closeAt)
	rec.end(closeSpan)
	res.meterResult = m.stop()

	res.stats = t.tx.Stats()
	res.rxRecvd, res.rxDup, _ = t.rx.Stats()
	res.connSetup = firstByte.Sub(t.built)
	for _, c := range t.sockConns {
		res.sockWrites += c.writes.Load()
		res.sockWriteNs += c.ns.Load()
	}
	for _, c := range t.chaosConns {
		res.pathWrites += c.writes.Load()
		res.pathWriteNs += c.ns.Load()
	}
	rec.add("sock.write(total)", parent, time.Duration(res.sockWriteNs))
	if len(t.chaosConns) > 0 {
		rec.add("chaos.path.write(total)", parent, time.Duration(res.pathWriteNs))
	}

	switch err := errors.Join(writeErr, readErr, waitErr); {
	case err != nil:
		res.err = err
	case gotBytes != t.pay.total:
		res.err = fmt.Errorf("received %d bytes, want %d", gotBytes, t.pay.total)
	case !bytes.Equal(got.Sum(nil), t.want):
		res.err = errors.New("SHA-256 of received stream does not match")
	}
	return res
}
