package transport

import (
	"testing"

	"mptcp/internal/netsim"
	"mptcp/internal/sim"
)

// poolFlowRecord is one flow's observable outcome in the pool tests.
type poolFlowRecord struct {
	started, done sim.Time
	delivered     int64
	retx          int64
}

// runFlowSequence runs `count` finite two-path flows back to back in
// one world — each next flow starts 50 ms after the previous completes
// — and returns their outcomes. With usePool the flows cycle through a
// ConnPool; otherwise every flow is a fresh NewConn. One forward link
// carries random loss so recovery machinery (and its rng draws) is
// exercised too.
func runFlowSequence(seed int64, count int, usePool bool) []poolFlowRecord {
	s := sim.New(seed)
	n := netsim.NewNet(s)
	mkPaths := func() []Path {
		l1 := netsim.NewLink("p1", 8, 10*sim.Millisecond, 20)
		l2 := netsim.NewLink("p2", 4, 25*sim.Millisecond, 20)
		l1.LossRate = 0.01
		r1 := netsim.NewLink("p1-rev", 8, 10*sim.Millisecond, 20)
		r2 := netsim.NewLink("p2-rev", 4, 25*sim.Millisecond, 20)
		return []Path{{Fwd: []*netsim.Link{l1}, Rev: []*netsim.Link{r1}},
			{Fwd: []*netsim.Link{l2}, Rev: []*netsim.Link{r2}}}
	}
	paths := mkPaths()
	var pool *ConnPool
	if usePool {
		pool = NewConnPool(n)
	}
	out := make([]poolFlowRecord, 0, count)
	var launch func(i int)
	launch = func(i int) {
		if i >= count {
			return
		}
		var c *Conn
		cfg := Config{
			Paths:       paths,
			DataPackets: 400,
			RecvBuf:     64,
			OnComplete: func() {
				rec := poolFlowRecord{
					started:   c.StartedAt(),
					done:      c.CompletedAt(),
					delivered: c.Delivered(),
				}
				for _, sf := range c.Subflows() {
					rec.retx += sf.PktsRetx
				}
				out = append(out, rec)
				if usePool {
					pool.Put(c)
				}
				s.After(50*sim.Millisecond, func() { launch(i + 1) })
			},
		}
		if usePool {
			c = pool.Get(cfg)
		} else {
			c = NewConn(n, cfg)
		}
		c.Start()
	}
	launch(0)
	s.RunUntil(120 * sim.Second)
	if usePool && pool.Reuses == 0 && count > 1 {
		panic("pool never recycled a connection")
	}
	return out
}

// TestConnPoolTransparent pins pooling as a pure allocation
// optimisation: a sequence of flows through the pool produces exactly
// the outcomes of the same sequence with fresh connections — same
// start/completion times, deliveries and retransmission counts.
func TestConnPoolTransparent(t *testing.T) {
	fresh := runFlowSequence(31, 6, false)
	pooled := runFlowSequence(31, 6, true)
	if len(fresh) != 6 || len(pooled) != 6 {
		t.Fatalf("completed %d fresh / %d pooled flows, want 6 each", len(fresh), len(pooled))
	}
	for i := range fresh {
		if fresh[i] != pooled[i] {
			t.Fatalf("flow %d diverges: fresh %+v vs pooled %+v", i, fresh[i], pooled[i])
		}
	}
}

// TestConnPoolRecyclesObjects verifies the pool actually reuses the
// connection object (keyed by path count) and that its subflows' grown
// state carries over as capacity, not as state.
func TestConnPoolRecyclesObjects(t *testing.T) {
	s := sim.New(1)
	n := netsim.NewNet(s)
	l := netsim.NewLink("l", 10, 5*sim.Millisecond, 50)
	r := netsim.NewLink("r", 10, 5*sim.Millisecond, 50)
	paths := []Path{{Fwd: []*netsim.Link{l}, Rev: []*netsim.Link{r}}}
	pool := NewConnPool(n)

	c1 := pool.Get(Config{Paths: paths, DataPackets: 50})
	c1.Start()
	s.RunUntil(30 * sim.Second)
	if !c1.Done() {
		t.Fatal("first flow did not complete")
	}
	pool.Put(c1)

	c2 := pool.Get(Config{Paths: paths, DataPackets: 50})
	if c2 != c1 {
		t.Fatal("pool did not recycle the completed connection")
	}
	if c2.Done() || c2.Delivered() != 0 || c2.StartedAt() != 0 {
		t.Fatalf("recycled connection leaked state: done=%v delivered=%d", c2.Done(), c2.Delivered())
	}
	c2.Start()
	s.RunUntil(60 * sim.Second)
	if !c2.Done() || c2.Delivered() != 50 {
		t.Fatalf("recycled flow: done=%v delivered=%d, want 50", c2.Done(), c2.Delivered())
	}
	if pool.Gets != 2 || pool.Reuses != 1 {
		t.Fatalf("pool stats gets=%d reuses=%d, want 2/1", pool.Gets, pool.Reuses)
	}
}

// TestConnPoolCycleAllocs bounds what a pooled life costs the allocator
// when the next flow uses the very path slices of the last one (the
// fleet's case): the bound timer callbacks and the four route objects
// carry over, so what is left is the protocol core's per-life state. A
// life over other slices gets fresh routes — equal links are not enough,
// a straggler of the old life must keep the route object it left with.
func TestConnPoolCycleAllocs(t *testing.T) {
	s := sim.New(1)
	n := netsim.NewNet(s)
	var paths []Path
	for _, name := range []string{"a", "b"} {
		paths = append(paths, Path{
			Fwd: []*netsim.Link{netsim.NewLink(name, 100, sim.Millisecond, 50)},
			Rev: []*netsim.Link{netsim.NewLink(name+"-rev", 100, sim.Millisecond, 50)},
		})
	}
	pool := NewConnPool(n)
	cfg := Config{Paths: paths, DataPackets: 10}
	cycle := func() *Conn {
		c := pool.Get(cfg)
		c.Start()
		for !c.Done() {
			s.RunUntil(s.Now() + sim.Millisecond)
		}
		pool.Put(c)
		return c
	}
	c := cycle()
	fwd, rev := c.subs[1].fwd, c.recv.rev[1]
	if allocs := testing.AllocsPerRun(100, func() { cycle() }); allocs > 2 {
		t.Errorf("pooled life allocated %.1f objects, want at most 2", allocs)
	}
	if c.subs[1].fwd != fwd || c.recv.rev[1] != rev {
		t.Error("a life over the same path slices did not keep its routes")
	}
	cfg.Paths = []Path{paths[0], {Fwd: []*netsim.Link{paths[1].Fwd[0]}, Rev: []*netsim.Link{paths[1].Rev[0]}}}
	if cycle() != c {
		t.Fatal("pool did not recycle the connection")
	}
	if c.subs[1].fwd == fwd || c.recv.rev[1] == rev {
		t.Error("a life over other slices (equal links) reused the previous life's routes")
	}
	if c.subs[0].fwd.Links[0] != paths[0].Fwd[0] || c.subs[1].fwd.Links[0] != paths[1].Fwd[0] {
		t.Error("routes do not follow the configured paths")
	}
}

// TestConnPoolLiveTracking: connections handed out by Get and not yet
// returned by Put form the live set, and their partial deliveries are
// visible mid-flight — the hook horizon accounting (fleet, appgrid)
// uses to avoid undercounting in-flight flows.
func TestConnPoolLiveTracking(t *testing.T) {
	s := sim.New(1)
	n := netsim.NewNet(s)
	l := netsim.NewLink("l", 10, 5*sim.Millisecond, 50)
	r := netsim.NewLink("r", 10, 5*sim.Millisecond, 50)
	paths := []Path{{Fwd: []*netsim.Link{l}, Rev: []*netsim.Link{r}}}
	pool := NewConnPool(n)

	c := pool.Get(Config{Paths: paths, DataPackets: 200})
	if pool.LiveCount() != 1 || pool.LiveDelivered() != 0 {
		t.Fatalf("after Get: live=%d delivered=%d, want 1/0", pool.LiveCount(), pool.LiveDelivered())
	}
	c.Start()
	s.RunUntil(30 * sim.Millisecond)
	if c.Done() {
		t.Fatal("flow completed before the mid-flight check")
	}
	if d := pool.LiveDelivered(); d <= 0 || d != c.Delivered() {
		t.Fatalf("mid-flight LiveDelivered = %d, want the conn's %d (> 0)", d, c.Delivered())
	}
	s.RunUntil(60 * sim.Second)
	if !c.Done() {
		t.Fatal("flow did not complete")
	}
	pool.Put(c)
	if pool.LiveCount() != 0 || pool.LiveDelivered() != 0 {
		t.Fatalf("after Put: live=%d delivered=%d, want 0/0", pool.LiveCount(), pool.LiveDelivered())
	}
}

// TestConnPoolRecycleInsideOnComplete: a workload may Put and re-Get
// the completing connection from inside OnComplete (a web page fetching
// the next object the instant its dependency lands). OnComplete runs
// inside the protocol core's OnAck, in the middle of processing the final
// ACK of the old life — the remainder of that ACK must not be applied to
// the new life. The core's life guard is pinned by its own event script
// (proto.TestResetInsideCompletedDropsRestOfAck); this checks it through
// the real pool: without the guard the old ACK's subflow cumulative ack
// pushed the fresh subflow's sndUna past sndNxt (negative outstanding)
// and credited the fresh window with phantom slow-start increments.
func TestConnPoolRecycleInsideOnComplete(t *testing.T) {
	s := sim.New(1)
	n := netsim.NewNet(s)
	l := netsim.NewLink("l", 10, 5*sim.Millisecond, 50)
	r := netsim.NewLink("r", 10, 5*sim.Millisecond, 50)
	paths := []Path{{Fwd: []*netsim.Link{l}, Rev: []*netsim.Link{r}}}
	pool := NewConnPool(n)

	var completed int
	var c *Conn
	var spawn func()
	spawn = func() {
		c = pool.Get(Config{
			Paths:       paths,
			DataPackets: 6,
			SendJitter:  -1,
			OnComplete: func() {
				completed++
				pool.Put(c)
				if completed >= 2 {
					return
				}
				spawn() // recycle the conn inside the completing ACK
				// 1 ms after the recycle — less than the 10 ms RTT, so
				// no ACK of the new life has arrived yet — the new life
				// must still be in its initial state: the old life's
				// final ack (6) must not have touched it.
				recycled := c
				s.After(sim.Millisecond, func() {
					if sent := recycled.Subflows()[0].PktsSent; sent != 2 {
						t.Errorf("new life sent %d packets, want its initial window of 2 (old life's ack applied?)", sent)
					}
					if cw := recycled.Cwnd(0); cw != 2 {
						t.Errorf("fresh cwnd = %v, want the initial 2 (phantom slow-start credits)", cw)
					}
				})
			},
		})
		c.Start()
	}
	spawn()
	s.RunUntil(30 * sim.Second)
	if completed != 2 {
		t.Fatalf("completed %d transfers, want 2", completed)
	}
}

// TestConnPoolRejectsLiveConn: pooling a connection that has not
// completed is a caller bug and must panic.
func TestConnPoolRejectsLiveConn(t *testing.T) {
	s := sim.New(1)
	n := netsim.NewNet(s)
	l := netsim.NewLink("l", 10, 5*sim.Millisecond, 50)
	r := netsim.NewLink("r", 10, 5*sim.Millisecond, 50)
	pool := NewConnPool(n)
	c := pool.Get(Config{Paths: []Path{{Fwd: []*netsim.Link{l}, Rev: []*netsim.Link{r}}}, DataPackets: 50})
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a live connection did not panic")
		}
	}()
	pool.Put(c)
}
