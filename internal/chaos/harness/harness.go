// Package harness runs fleets of concurrent mptcpnet transfers over real
// UDP sockets while a seeded random-walk director, or a scenario script,
// mutates path conditions. Both run as events on one wall Clock over the
// subflows' Links, and stopping the clock stops every fault. It asserts
// the invariants that make the stack a usable transport rather than a
// demo:
//
//  1. Liveness: every transfer resolves within its deadline — it either
//     completes, or fails with an explicit error while every one of its
//     paths is down. A stall, a Wait that runs out of time, and an error
//     while a path is still up are violations.
//  2. Integrity: a completed transfer delivered exactly the bytes that
//     were sent (length and SHA-256).
//  3. Cleanliness: after teardown, zero goroutines and zero scheduled
//     chaos deliveries survive (snapshot-diff leak detector with a retry
//     window).
//
// Every violation string embeds the run's seed, so any failure — local,
// CI `-race` chaos job, or nightly soak — reproduces with
// `-chaos.seed=<seed>`. See TESTING.md at the repo root.
package harness

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mptcp/internal/chaos"
	"mptcp/internal/chaos/leak"
	"mptcp/internal/mptcpnet"
	"mptcp/internal/scenario"
	"mptcp/internal/sim"
)

// Config parameterises one harness run. The zero value is filled with
// the fast-tier defaults noted per field.
type Config struct {
	Sockets int   // concurrent connections (default 4)
	Paths   int   // subflows per connection (default 2)
	Bytes   int   // payload per transfer (default 64 KiB)
	Seed    int64 // master seed; every derived rng and message includes it

	Churn       time.Duration // director mutation phase, heal-all at its end (default 1s)
	Tick        time.Duration // director step interval (default 20ms)
	WaitTimeout time.Duration // per-transfer resolution bound (default 60s)

	Net     mptcpnet.Config // per-connection transport config
	RecvBuf int64           // receiver shared buffer, segments (default 512)

	// SenderPath, when non-nil, is the initial fault model for every
	// data-direction path (default: clean 1ms delay, no rate limit). The
	// director still mutates on top of it. A scenario's relative rate
	// directives (a RateRamp without Abs, such as handover's) scale the
	// path's RateBps, so they need one set here: on the default path
	// they fail at install.
	SenderPath *chaos.PathConfig

	// Scenario, when non-empty, replaces the director: it is installed
	// on every connection, link i being path i (a Link named
	// "s<socket>-p<path>"), on one wall Clock started with the
	// transfers, so its times count from their launch. Directives that
	// need the simulator fail the run at install.
	Scenario scenario.Scenario

	LogW io.Writer // optional JSONL event sink (chaos.Log schema)
}

// Result is one run's outcome tally.
type Result struct {
	Completed  int
	Errored    int
	Violations []string    // invariant breaches; each embeds the seed
	PathStats  chaos.Stats // summed over every chaos path in the run
	Corrupted  int64       // frames the endpoints' checksums refused
}

func (c *Config) defaults() {
	if c.Sockets <= 0 {
		c.Sockets = 4
	}
	if c.Paths <= 0 {
		c.Paths = 2
	}
	if c.Bytes <= 0 {
		c.Bytes = 64 << 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Churn <= 0 {
		c.Churn = time.Second
	}
	if c.Tick <= 0 {
		c.Tick = 20 * time.Millisecond
	}
	if c.WaitTimeout <= 0 {
		c.WaitTimeout = 60 * time.Second
	}
	if c.RecvBuf <= 0 {
		c.RecvBuf = 512
	}
}

// socket is one connection under test: the real UDP conns, their chaos
// wrappers, and the endpoints.
type socket struct {
	id    int
	links []Link // path i: {data direction, ACK direction}
	tx    *mptcpnet.Sender
	rx    *mptcpnet.Receiver
	data  []byte
}

// outcome is one transfer's resolution.
type outcome struct {
	socket    int
	err       error // non-nil: failed with an explicit error
	allDown   bool  // every path of the connection was down at err
	stalled   bool  // neither completed nor errored within the deadline
	got       int   // bytes the reader had received
	integrity bool  // length and hash matched
}

// Run executes one harness run and reports the outcome. It never calls
// into testing — use RunT in tests for the assertion wrapper.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	snap := leak.Take()
	log := chaos.NewLog(cfg.LogW)
	log.Emit(chaos.Event{Ev: "run-start", Seed: cfg.Seed,
		Detail: fmt.Sprintf("sockets=%d paths=%d bytes=%d", cfg.Sockets, cfg.Paths, cfg.Bytes)})

	res := &Result{}
	violate := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		res.Violations = append(res.Violations, fmt.Sprintf("seed=%d: %s", cfg.Seed, msg))
		log.Emit(chaos.Event{Ev: "violation", Seed: cfg.Seed, Detail: msg})
	}

	// Build every socket over real loopback UDP.
	var sockets []*socket
	var links []Link
	abort := func(k int, err error) (*Result, error) {
		for _, s := range sockets {
			s.teardown()
		}
		return nil, fmt.Errorf("seed=%d: socket %d setup: %w", cfg.Seed, k, err)
	}
	for k := 0; k < cfg.Sockets; k++ {
		sk, err := buildSocket(k, cfg, log)
		if err != nil {
			return abort(k, err)
		}
		sockets = append(sockets, sk)
		links = append(links, sk.links...)
	}

	// The clock starts with the transfers, so every script time counts
	// from their launch. A scenario scripts each socket, link i being
	// path i; without one, the random-walk director mutates the paths.
	log.Emit(chaos.Event{Ev: "launch", Seed: cfg.Seed})
	clock := NewClock()
	if len(cfg.Scenario.Directives) == 0 {
		direct(clock, links, cfg.Tick, cfg.Churn, sim.MixSeed(cfg.Seed, 0), log)
	}
	for _, sk := range sockets {
		env := &scenario.Env{Clock: clock}
		for _, l := range sk.links {
			env.Links = append(env.Links, l)
		}
		if err := cfg.Scenario.Install(env); err != nil {
			clock.Stop()
			return abort(sk.id, err)
		}
	}
	outcomes := make(chan outcome, len(sockets))
	var wg sync.WaitGroup
	for _, sk := range sockets {
		wg.Add(1)
		go func(sk *socket) {
			defer wg.Done()
			outcomes <- sk.run(cfg)
		}(sk)
	}

	// Collect resolutions.
	deadline := time.After(cfg.WaitTimeout + cfg.Churn)
	resolved := 0
	for resolved < len(sockets) {
		select {
		case o := <-outcomes:
			resolved++
			switch {
			case o.stalled:
				violate("socket %d stalled silently: %d/%d bytes, no completion and no error within deadline",
					o.socket, o.got, cfg.Bytes)
			case o.err != nil:
				res.Errored++
				log.Emit(chaos.Event{Ev: "xfer-error", Socket: o.socket, Err: o.err.Error()})
				if !o.allDown {
					violate("socket %d failed while one of its paths was up: %v", o.socket, o.err)
				}
			case !o.integrity:
				violate("socket %d completed but delivered %d/%d bytes or a corrupted stream", o.socket, o.got, cfg.Bytes)
			default:
				res.Completed++
				log.Emit(chaos.Event{Ev: "xfer-done", Socket: o.socket, Bytes: o.got})
			}
		case <-deadline:
			violate("%d/%d transfers unresolved at harness deadline", len(sockets)-resolved, len(sockets))
			resolved = len(sockets) // bail; teardown below unwedges the stragglers
		}
	}
	clock.Stop() // no fault, scripted or random, fires from here on

	// Teardown: close every chaos path (and with it the real sockets),
	// then the endpoints; the leak check below proves it all unwound.
	for _, sk := range sockets {
		sk.teardown()
	}
	wg.Wait()

	// Invariant 3a: every delayed chaos delivery drained or cancelled;
	// then the paths' counters are final.
	pendingDeadline := time.Now().Add(3 * time.Second)
	for _, l := range links {
		for _, p := range l.Paths {
			for p.Pending() != 0 {
				if time.Now().After(pendingDeadline) {
					violate("chaos path %s still holds %d scheduled deliveries after close: Close left them queued", p.LocalAddr(), p.Pending())
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			st := p.Stats()
			res.PathStats.Sent += st.Sent
			res.PathStats.Dropped += st.Dropped
			res.PathStats.Duplicated += st.Duplicated
			res.PathStats.Corrupted += st.Corrupted
			res.PathStats.Reordered += st.Reordered
		}
	}

	// Invariant 3b: zero goroutines born in this run survive teardown.
	for _, stack := range snap.Leaked(5 * time.Second) {
		violate("leaked goroutine:\n%s", stack)
	}

	for _, sk := range sockets {
		res.Corrupted += sk.rx.Corrupted() + sk.tx.Stats().Corrupt
	}
	log.Emit(chaos.Event{Ev: "run-end", Seed: cfg.Seed,
		Detail: fmt.Sprintf("completed=%d errored=%d violations=%d", res.Completed, res.Errored, len(res.Violations))})
	return res, nil
}

// RunT runs the harness and fails t on any violation; every message
// carries the reproducing seed.
func RunT(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	return res
}

// buildSocket opens cfg.Paths real UDP path pairs on loopback, wraps
// each direction in a chaos.Path, and wires up the endpoints. Path 0 of
// every connection is the protected link: the director keeps it
// survivable, anchoring the completion invariant. Socket k's rngs derive
// from sim.MixSeed(cfg.Seed, 1+k), index 0 being the director's: path i
// takes indices 2i and 2i+1 below it, the payload the next one.
func buildSocket(k int, cfg Config, log *chaos.Log) (*socket, error) {
	seed := sim.MixSeed(cfg.Seed, 1+k)
	sk := &socket{id: k}
	var sConns, rConns []net.PacketConn
	var remotes []net.Addr
	for i := 0; i < cfg.Paths; i++ {
		sRaw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			sk.teardownPaths()
			return nil, err
		}
		rRaw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			sRaw.Close()
			sk.teardownPaths()
			return nil, err
		}
		sCfg := chaos.PathConfig{Delay: time.Millisecond}
		if cfg.SenderPath != nil {
			sCfg = *cfg.SenderPath
		}
		sPath := chaos.New(sRaw, sCfg, sim.MixSeed(seed, 2*i))
		rPath := chaos.New(rRaw, chaos.PathConfig{Delay: time.Millisecond}, sim.MixSeed(seed, 2*i+1))
		sConns = append(sConns, sPath)
		rConns = append(rConns, rPath)
		remotes = append(remotes, rRaw.LocalAddr())
		sk.links = append(sk.links, Link{
			Name:      fmt.Sprintf("s%d-p%d", k, i),
			Paths:     []*chaos.Path{sPath, rPath},
			Log:       log,
			Protected: i == 0,
		})
	}
	connID := uint64(1000 + k)
	sk.rx = mptcpnet.NewReceiver(connID, rConns, cfg.RecvBuf)
	sk.tx = mptcpnet.NewSender(connID, sConns, remotes, cfg.Net)
	sk.data = make([]byte, cfg.Bytes)
	rand.New(rand.NewSource(sim.MixSeed(seed, 2*cfg.Paths))).Read(sk.data)
	return sk, nil
}

// run drives one transfer to resolution: sender writes, closes and
// waits; reader drains to EOF and hashes. Returns when the transfer
// completed, failed with an error, or the deadline passed (stall); every
// outcome carries the bytes the reader had received by then.
func (sk *socket) run(cfg Config) outcome {
	wantSum := sha256.Sum256(sk.data)
	deadline := time.Now().Add(cfg.WaitTimeout)

	werr := make(chan error, 1)
	go func() {
		if _, err := sk.tx.Write(sk.data); err != nil {
			werr <- err
			return
		}
		sk.tx.Close()
		werr <- sk.tx.Wait(time.Until(deadline))
	}()

	type readResult struct {
		got []byte
		err error
	}
	rres := make(chan readResult, 1)
	var read atomic.Int64 // the reader's running byte count
	go func() {
		var got []byte
		buf := make([]byte, 64<<10)
		for {
			n, err := sk.rx.Read(buf)
			got = append(got, buf[:n]...)
			read.Add(int64(n))
			if err != nil {
				if err == io.EOF {
					err = nil
				}
				rres <- readResult{got, err}
				return
			}
		}
	}()

	expired := time.After(time.Until(deadline))
	select {
	case err := <-werr:
		if err != nil {
			// The sender gave up, or its Wait ran out of time: the
			// latter resolved nothing. Release the reader.
			down, late := sk.down(), !time.Now().Before(deadline)
			sk.rx.Close()
			r := <-rres
			return outcome{socket: sk.id, err: err, allDown: down, stalled: late, got: len(r.got)}
		}
		// Sender finished cleanly: the reader must reach EOF promptly.
		select {
		case r := <-rres:
			if r.err != nil {
				return outcome{socket: sk.id, err: r.err, allDown: sk.down(), got: len(r.got)}
			}
			ok := len(r.got) == len(sk.data) && sha256.Sum256(r.got) == wantSum
			return outcome{socket: sk.id, got: len(r.got), integrity: ok}
		case <-expired:
			return outcome{socket: sk.id, stalled: true, got: int(read.Load())}
		}
	case <-expired:
		// Neither the sender resolved nor ... the writer may be wedged in
		// Write backpressure with no error: the definition of a silent
		// stall.
		return outcome{socket: sk.id, stalled: true, got: int(read.Load())}
	}
}

// down reports whether every path of the connection is down.
func (sk *socket) down() bool {
	for _, l := range sk.links {
		for _, p := range l.Paths {
			if !p.Down() {
				return false
			}
		}
	}
	return true
}

// teardown closes every chaos path (closing the real sockets beneath,
// which releases the endpoint read loops) and the receiver.
func (sk *socket) teardown() {
	sk.teardownPaths()
	if sk.rx != nil {
		sk.rx.Close()
	}
}

func (sk *socket) teardownPaths() {
	for _, l := range sk.links {
		for _, p := range l.Paths {
			p.Close()
		}
	}
}
