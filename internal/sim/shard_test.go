package sim

import (
	"sync"
	"sync/atomic"
	"testing"
)

// shardNode is one domain's workload in the sharded tests: a periodic
// local event that mixes the domain's own randomness into a running
// hash and forwards the hash to the next domain over a pipe, plus a
// Handler that folds received cross-domain values in. The final hash is
// sensitive to both event ordering and rng draws, so any divergence in
// scheduling or merge order across shard counts shows up immediately.
type shardNode struct {
	s    *Simulator
	hash uint64
	recv int
}

func (n *shardNode) OnEvent(arg any) {
	v := arg.(uint64)
	n.hash = n.hash*1099511628211 ^ v
	n.recv++
}

// runRing wires nDom domains into a ring of pipes (node i ticks every
// millisecond and sends its hash to node i+1 over a 5ms pipe), runs to
// end with the given shard count, and returns each node's final hash,
// receive count, and the engine's total step count.
func runRing(shards int, seed int64, nDom int, end Time) ([]uint64, []int, uint64) {
	sh := NewSharded(seed, nDom)
	nodes := make([]*shardNode, nDom)
	for i := range nodes {
		nodes[i] = &shardNode{s: sh.Domain(i)}
	}
	type edge struct {
		p   *Pipe
		dst *shardNode
	}
	edges := make([]edge, nDom)
	for i := range nodes {
		j := (i + 1) % nDom
		edges[i] = edge{p: sh.NewPipe(i, j, 5*Millisecond), dst: nodes[j]}
	}
	for i := range nodes {
		node := nodes[i]
		e := edges[i]
		var tick func()
		tick = func() {
			r := uint64(node.s.Rand().Int63())
			node.hash = node.hash*31 + r ^ uint64(node.s.Now())
			e.p.Send(e.dst, node.hash)
			node.s.After(Millisecond, tick)
		}
		node.s.After(Millisecond, tick)
	}
	sh.SetShards(shards)
	sh.Run(end)
	hashes := make([]uint64, nDom)
	recvs := make([]int, nDom)
	for i, n := range nodes {
		hashes[i] = n.hash
		recvs[i] = n.recv
	}
	return hashes, recvs, sh.Steps()
}

// TestShardCountInvariance pins the tentpole contract: a pipe-coupled
// multi-domain workload produces bit-identical state at shards = 1, 2,
// 4 and the default (GOMAXPROCS).
func TestShardCountInvariance(t *testing.T) {
	const nDom, seed = 8, int64(7)
	end := 200 * Millisecond
	refHash, refRecv, refSteps := runRing(1, seed, nDom, end)
	for _, shards := range []int{2, 4, 0} {
		h, r, steps := runRing(shards, seed, nDom, end)
		for i := range h {
			if h[i] != refHash[i] {
				t.Fatalf("shards=%d: domain %d hash %x != shards=1 hash %x", shards, i, h[i], refHash[i])
			}
			if r[i] != refRecv[i] {
				t.Fatalf("shards=%d: domain %d recv %d != shards=1 recv %d", shards, i, r[i], refRecv[i])
			}
		}
		if steps != refSteps {
			t.Fatalf("shards=%d: %d steps != shards=1 %d steps", shards, steps, refSteps)
		}
	}
	// The workload must actually exercise cross-domain delivery, or the
	// invariance above is vacuous.
	for i, r := range refRecv {
		if r == 0 {
			t.Fatalf("domain %d received no cross-domain messages", i)
		}
	}
}

// TestShardedRepeatedRun checks Run can be called with increasing
// horizons and the split makes no difference to the final state.
func TestShardedRepeatedRun(t *testing.T) {
	const nDom, seed = 4, int64(11)
	oneShot, _, _ := runRing(2, seed, nDom, 100*Millisecond)

	// Same build, run in two stretches.
	sh := NewSharded(seed, nDom)
	nodes := make([]*shardNode, nDom)
	for i := range nodes {
		nodes[i] = &shardNode{s: sh.Domain(i)}
	}
	for i := range nodes {
		j := (i + 1) % nDom
		p := sh.NewPipe(i, j, 5*Millisecond)
		node := nodes[i]
		dst := nodes[j]
		var tick func()
		tick = func() {
			r := uint64(node.s.Rand().Int63())
			node.hash = node.hash*31 + r ^ uint64(node.s.Now())
			p.Send(dst, node.hash)
			node.s.After(Millisecond, tick)
		}
		node.s.After(Millisecond, tick)
	}
	sh.SetShards(2)
	sh.Run(40 * Millisecond)
	sh.Run(100 * Millisecond)
	for i, n := range nodes {
		if n.hash != oneShot[i] {
			t.Fatalf("domain %d: split run hash %x != one-shot %x", i, n.hash, oneShot[i])
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

func TestParallelRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 37
		counts := make([]int32, n)
		Parallel(n, workers, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Errorf("workers %d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestParallelBoundsConcurrency(t *testing.T) {
	const limit = 3
	var cur, peak int32
	var mu sync.Mutex
	Parallel(50, limit, func(i int) {
		c := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if c > peak {
			peak = c
		}
		mu.Unlock()
		atomic.AddInt32(&cur, -1)
	})
	if peak > limit {
		t.Errorf("observed %d concurrent units, limit %d", peak, limit)
	}
}

func TestParallelEmpty(t *testing.T) {
	called := false
	Parallel(0, 0, func(int) { called = true })
	if called {
		t.Error("Parallel(0, ...) ran the body")
	}
}
