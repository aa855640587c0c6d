package sim

import (
	"bytes"
	"runtime"
	"testing"
)

// shardNode is one domain's workload in the sharded tests: a periodic
// local event that mixes the domain's own randomness into a running
// hash and forwards the hash to the next domain over a pipe, plus a
// Handler that folds received cross-domain values in. The final hash is
// sensitive to both event ordering and rng draws, so any divergence in
// scheduling or merge order shows up immediately.
type shardNode struct {
	s     *Simulator
	out   *Pipe
	next  *shardNode
	hash  uint64
	recv  int
	probe func() // when set, run by every event of the node
}

func (n *shardNode) OnEvent(arg any) {
	v := arg.(uint64)
	n.hash = n.hash*1099511628211 ^ v
	n.recv++
	if n.probe != nil {
		n.probe()
	}
}

func (n *shardNode) tick() {
	r := uint64(n.s.Rand().Int63())
	n.hash = n.hash*31 + r ^ uint64(n.s.Now())
	n.out.Send(n.next, n.hash)
	n.s.After(Millisecond, n.tick)
	if n.probe != nil {
		n.probe()
	}
}

// newRing wires nDom domains into a ring of pipes: node i ticks every
// millisecond and sends its hash to node i+1 over a 5ms pipe.
func newRing(seed int64, nDom int) (*Sharded, []*shardNode) {
	sh := NewSharded(seed, nDom)
	nodes := make([]*shardNode, nDom)
	for i := range nodes {
		nodes[i] = &shardNode{s: sh.Domain(i)}
	}
	for i, n := range nodes {
		j := (i + 1) % nDom
		n.out, n.next = sh.NewPipe(i, j, 5*Millisecond), nodes[j]
		n.s.After(Millisecond, n.tick)
	}
	return sh, nodes
}

// goroutineID returns the "goroutine N" header of the caller's stack
// dump: the identity of the goroutine it runs on.
func goroutineID() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return string(buf[:bytes.IndexByte(buf[:n], '[')])
}

// TestShardedRunsOnCallerGoroutine pins that the engine starts no
// goroutines: every event of 32 pipe-coupled domains runs on the
// goroutine that called Run, even after SetShards asks for four. It
// compares goroutine identities, not runtime.NumGoroutine, which other
// goroutines of the test binary move.
func TestShardedRunsOnCallerGoroutine(t *testing.T) {
	sh, nodes := newRing(7, 32)
	want := goroutineID()
	var events, off int
	for _, n := range nodes {
		n.probe = func() {
			events++
			if goroutineID() != want {
				off++
			}
		}
	}
	sh.SetShards(4)
	sh.Run(100 * Millisecond)
	if off > 0 {
		t.Fatalf("%d of %d events ran off the goroutine that called Run", off, events)
	}
	// Non-vacuity: every domain must take part in cross-domain traffic.
	for i, n := range nodes {
		if n.recv == 0 {
			t.Fatalf("domain %d received no cross-domain messages", i)
		}
	}
}

// TestShardedRepeatedRun checks Run can be called with increasing
// horizons and the split makes no difference to the final state.
func TestShardedRepeatedRun(t *testing.T) {
	const nDom, seed = 4, int64(11)
	sh, oneShot := newRing(seed, nDom)
	sh.Run(100 * Millisecond)

	sh, split := newRing(seed, nDom)
	sh.Run(40 * Millisecond)
	sh.Run(100 * Millisecond)
	for i, n := range split {
		if n.hash != oneShot[i].hash || n.recv != oneShot[i].recv {
			t.Fatalf("domain %d: split run (%x, %d) != one-shot (%x, %d)",
				i, n.hash, n.recv, oneShot[i].hash, oneShot[i].recv)
		}
	}
}

// TestShardedNoPipes: independent domains run straight to the horizon.
func TestShardedNoPipes(t *testing.T) {
	sh := NewSharded(3, 3)
	fired := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		sh.Domain(i).After(Time(i+1)*Millisecond, func() { fired[i]++ })
	}
	sh.Run(10 * Millisecond)
	for i, f := range fired {
		if f != 1 {
			t.Fatalf("domain %d fired %d times, want 1", i, f)
		}
		if now := sh.Domain(i).Now(); now != 10*Millisecond {
			t.Fatalf("domain %d clock %v, want 10ms", i, now)
		}
	}
}

// TestDomainSeed pins the derived-seed discipline (mirrors CellSeed).
func TestDomainSeed(t *testing.T) {
	if got, want := DomainSeed(42, 0), MixSeed(42, 0); got != want {
		t.Fatalf("DomainSeed(42,0) = %d, want MixSeed's %d", got, want)
	}
	if got, want := DomainSeed(42, 7), MixSeed(42, 7); got != want {
		t.Fatalf("DomainSeed(42,7) = %d, want MixSeed's %d", got, want)
	}
	// Large bases must not wrap into colliding seed ranges (the old
	// stride scheme overflowed int64 here).
	if DomainSeed(9_200_000_000_000, 0) == DomainSeed(9_200_000_000_001, 0) {
		t.Fatal("adjacent huge bases collide")
	}
	sh := NewSharded(42, 2)
	a := sh.Domain(0).Rand().Int63()
	b := sh.Domain(1).Rand().Int63()
	if a == b {
		t.Fatalf("domains share a random stream: %d == %d", a, b)
	}
}

// TestPipeValidation: out-of-range endpoints and non-positive latency
// are caller bugs and must panic.
func TestPipeValidation(t *testing.T) {
	sh := NewSharded(1, 2)
	for _, fn := range []func(){
		func() { sh.NewPipe(0, 2, Millisecond) },
		func() { sh.NewPipe(-1, 1, Millisecond) },
		func() { sh.NewPipe(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		}()
	}
}
