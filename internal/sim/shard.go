// Partitioned execution of a simulation.
//
// A Sharded engine runs many Simulator partitions ("domains") — one per
// topology component or connection group — in lock-step epochs on the
// calling goroutine. Within an epoch every domain advances its own event
// heap alone, in index order; packets that cross a domain boundary
// travel through a Pipe and are held back until the epoch barrier,
// where they are merged into the destination domains in a fixed order
// (pipe id, then send order). Every domain owns its randomness
// (DomainSeed, the same derived-seed discipline as internal/exp's
// CellSeed). The epoch length is the minimum pipe latency (the classic
// conservative lookahead of parallel discrete-event simulation): a
// message sent during an epoch can never be due before the next
// barrier, so no domain ever receives an event in its past. Partitioning
// pays without threads: many small heaps are cheaper to run than one
// large one (DESIGN.md §12).

package sim

import "fmt"

// DomainSeed derives the simulator seed for domain idx of a sharded
// engine whose base seed is base — the same discipline (MixSeed) as the
// parallel runner's CellSeed, so adding domains never perturbs the
// seeds of the domains before them, and chaining the two derivations
// (a sharded engine inside an experiment cell) never overflows.
func DomainSeed(base int64, idx int) int64 {
	return MixSeed(base, idx)
}

// Sharded runs n domain Simulators in epochs, one domain after another
// on the calling goroutine. Construct with NewSharded, wire cross-domain
// traffic with NewPipe, then Run. The zero value is not usable.
type Sharded struct {
	doms  []*Simulator
	pipes []*Pipe
	epoch Time // barrier interval = min pipe latency; 0 until a pipe exists
}

// NewSharded creates an engine of n domains; domain i is seeded with
// DomainSeed(seed, i).
func NewSharded(seed int64, n int) *Sharded {
	if n < 1 {
		panic("sim: sharded engine needs at least one domain")
	}
	sh := &Sharded{doms: make([]*Simulator, n)}
	for i := range sh.doms {
		sh.doms[i] = New(DomainSeed(seed, i))
	}
	return sh
}

// Domain returns domain i's Simulator. Everything a domain simulates —
// its network, endpoints, timers, randomness — must live on this
// Simulator and never touch another domain's state except through a
// Pipe.
func (sh *Sharded) Domain(i int) *Simulator { return sh.doms[i] }

// SetShards does nothing: every domain runs on the calling goroutine.
// It remains for callers written when domains ran on worker goroutines.
func (sh *Sharded) SetShards(int) {}

// Steps returns the total number of events executed across all domains.
func (sh *Sharded) Steps() uint64 {
	var total uint64
	for _, d := range sh.doms {
		total += d.Steps()
	}
	return total
}

// msg is one cross-domain event in flight: deliver h.OnEvent(arg) at
// time at in the pipe's destination domain.
type msg struct {
	at  Time
	h   Handler
	arg any
}

// Pipe is a unidirectional cross-domain channel with a fixed latency.
// The source domain calls Send during its epoch; the engine injects the
// message into the destination domain at the next barrier. Latency must
// be at least the engine's epoch (enforced at Run), which guarantees a
// message is never due before the barrier that merges it.
type Pipe struct {
	sh       *Sharded
	id       int
	src, dst int
	latency  Time
	buf      []msg // messages sent this epoch; single writer (src domain)
}

// NewPipe creates a pipe from domain src to domain dst with the given
// delivery latency. The engine's epoch shrinks to the smallest pipe
// latency.
func (sh *Sharded) NewPipe(src, dst int, latency Time) *Pipe {
	if src < 0 || src >= len(sh.doms) || dst < 0 || dst >= len(sh.doms) {
		panic(fmt.Sprintf("sim: pipe %d->%d outside domain range [0,%d)", src, dst, len(sh.doms)))
	}
	if latency <= 0 {
		panic("sim: pipe latency must be positive")
	}
	p := &Pipe{sh: sh, id: len(sh.pipes), src: src, dst: dst, latency: latency}
	sh.pipes = append(sh.pipes, p)
	if sh.epoch == 0 || latency < sh.epoch {
		sh.epoch = latency
	}
	return p
}

// Send schedules h.OnEvent(arg) in the pipe's destination domain at the
// source domain's current time plus the pipe latency. It must be called
// from code executing inside the source domain (an event handler or
// timer of that domain's Simulator); the message is buffered until the
// epoch barrier and injected there, so the destination's heap is never
// touched mid-epoch.
func (p *Pipe) Send(h Handler, arg any) {
	p.buf = append(p.buf, msg{at: p.sh.doms[p.src].Now() + p.latency, h: h, arg: arg})
}

// Run advances every domain to absolute time end. With pipes, execution
// proceeds in epochs of the minimum pipe latency, merging cross-domain
// messages at each barrier in (pipe id, send order) — an ordering that
// depends only on the wiring. Without pipes the domains are fully
// independent and each runs to end in one stretch. Run may be called
// repeatedly with increasing horizons.
func (sh *Sharded) Run(end Time) {
	if len(sh.pipes) == 0 {
		sh.runEpoch(end)
		return
	}
	// All domains share one clock frontier: any domain that has already
	// passed a barrier time simply no-ops its RunUntil.
	for {
		t := sh.frontier()
		if t >= end {
			return
		}
		next := t + sh.epoch
		if next > end {
			next = end
		}
		sh.runEpoch(next)
		sh.barrier()
	}
}

// frontier returns the common epoch clock — the minimum domain time.
func (sh *Sharded) frontier() Time {
	t := sh.doms[0].Now()
	for _, d := range sh.doms[1:] {
		if d.Now() < t {
			t = d.Now()
		}
	}
	return t
}

// barrier merges the epoch's cross-domain messages into their
// destination domains. Messages are injected pipe by pipe in creation
// order, and within a pipe in send order; injections allocate fresh
// sequence numbers in the destination, so same-instant ordering in the
// destination heap is a pure function of the wiring. A message can
// never be due before the destination's clock: send time is at most the
// epoch boundary, and latency >= epoch (checked here).
func (sh *Sharded) barrier() {
	for _, p := range sh.pipes {
		if p.latency < sh.epoch {
			panic(fmt.Sprintf("sim: pipe %d latency %v below epoch %v", p.id, p.latency, sh.epoch))
		}
		dst := sh.doms[p.dst]
		for _, m := range p.buf {
			dst.Post(m.at, m.h, m.arg)
		}
		p.buf = p.buf[:0]
	}
}

// runEpoch advances every domain to until, in index order.
func (sh *Sharded) runEpoch(until Time) {
	for _, d := range sh.doms {
		d.RunUntil(until)
	}
}
