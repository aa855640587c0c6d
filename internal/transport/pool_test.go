package transport

import (
	"fmt"
	"runtime"
	"testing"

	"mptcp/internal/netsim"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
)

// poolFlowRecord is one flow's observable outcome in the pool tests.
type poolFlowRecord struct {
	started, done sim.Time
	delivered     int64
	retx          int64
}

// seqFlows is the number of flows in a flowSequence.
const seqFlows = 6

// flowSequence is one world of seqFlows finite two-path flows run back
// to back.
type flowSequence struct {
	seed int64
	// gap separates a completion from the next start; 0 starts the next
	// flow inside OnComplete, so packets of the finished life are still
	// in flight when the next one begins.
	gap sim.Time
	// loss is the random loss rate of each forward link, so recovery
	// machinery (and its rng draws) is exercised too.
	loss [2]float64
	// freshSlices gives every flow its own copy of the path slices over
	// the same links, so a recycled connection rebuilds its routes
	// instead of keeping them.
	freshSlices bool
	// alternateBuf gives even flows a 16-packet receive buffer and odd
	// ones the default, so a pooled connection's scoreboard rings, sized
	// by the first life's buffer, must grow in the middle of a later one.
	alternateBuf bool
}

// run returns the flows' outcomes. With usePool the flows cycle through
// a ConnPool; otherwise every flow is a fresh NewConn. stragglers counts
// the packets still live at each completion.
func (q flowSequence) run(usePool bool) (out []poolFlowRecord, stragglers int) {
	s := sim.New(q.seed)
	n := netsim.NewNet(s)
	l1 := netsim.NewLink("p1", 8, 10*sim.Millisecond, 20)
	l2 := netsim.NewLink("p2", 4, 25*sim.Millisecond, 20)
	l1.LossRate, l2.LossRate = q.loss[0], q.loss[1]
	r1 := netsim.NewLink("p1-rev", 8, 10*sim.Millisecond, 20)
	r2 := netsim.NewLink("p2-rev", 4, 25*sim.Millisecond, 20)
	mkPaths := func() []Path {
		return []Path{{Fwd: []*netsim.Link{l1}, Rev: []*netsim.Link{r1}},
			{Fwd: []*netsim.Link{l2}, Rev: []*netsim.Link{r2}}}
	}
	paths := mkPaths()
	var pool *ConnPool
	if usePool {
		pool = NewConnPool(n)
	}
	var launch func(i int)
	launch = func(i int) {
		if i >= seqFlows {
			return
		}
		if q.freshSlices {
			paths = mkPaths()
		}
		var c *Conn
		recvBuf := int64(64)
		if q.alternateBuf {
			recvBuf = [2]int64{16, 0}[i%2]
		}
		cfg := Config{
			Paths:       paths,
			DataPackets: 400,
			RecvBuf:     recvBuf,
			OnComplete: func(c *Conn) {
				rec := poolFlowRecord{
					started:   c.StartedAt(),
					done:      c.CompletedAt(),
					delivered: c.Delivered(),
				}
				for _, sf := range c.Subflows() {
					rec.retx += sf.PktsRetx
				}
				out = append(out, rec)
				stragglers += n.LivePackets()
				if usePool {
					pool.Put(c)
				}
				if q.gap == 0 {
					launch(i + 1)
				} else {
					s.After(q.gap, func() { launch(i + 1) })
				}
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
	if usePool && pool.Reuses == 0 {
		panic("pool never recycled a connection")
	}
	return out, stragglers
}

// TestConnPoolTransparent pins pooling as a pure allocation
// optimisation: a sequence of flows through the pool produces exactly
// the outcomes of the same sequence with fresh connections — same
// start/completion times, deliveries and retransmission counts. The
// first input leaves 50 ms between flows; the rest recycle inside
// OnComplete, under loss on both forward links, with shared and with
// fresh path slices, so packets and ACKs of earlier lives reach the
// recycled connection and its kept timers. The last inputs alternate the
// receive buffer between lives, so a pooled ring grows mid-life where a
// fresh one starts large.
func TestConnPoolTransparent(t *testing.T) {
	seqs := []flowSequence{{seed: 31, gap: 50 * sim.Millisecond, loss: [2]float64{0.01, 0}}}
	for seed := int64(1); seed <= 20; seed++ {
		for _, loss := range []float64{0.01, 0.03, 0.08} {
			for _, fresh := range []bool{false, true} {
				seqs = append(seqs, flowSequence{seed: seed, loss: [2]float64{loss, loss}, freshSlices: fresh})
			}
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		for _, loss := range []float64{0.01, 0.03} {
			seqs = append(seqs, flowSequence{seed: seed, loss: [2]float64{loss, loss}, alternateBuf: true})
		}
	}
	stragglers := 0
	for _, q := range seqs {
		fresh, _ := q.run(false)
		pooled, live := q.run(true)
		if len(fresh) != seqFlows || len(pooled) != seqFlows {
			t.Fatalf("%+v: completed %d fresh / %d pooled flows, want %d each", q, len(fresh), len(pooled), seqFlows)
		}
		for i := range fresh {
			if fresh[i] != pooled[i] {
				t.Fatalf("%+v: flow %d diverges: fresh %+v vs pooled %+v", q, i, fresh[i], pooled[i])
			}
		}
		if q.gap == 0 {
			stragglers += live
		}
	}
	if stragglers == 0 {
		t.Error("no packet outlived its flow: immediate recycling went unexercised")
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
// fleet's case): the timers, the four route objects and the completion
// function, bound once outside the cycle, carry over, so
// what is left is the protocol core's per-life state. A
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
	cfg := Config{Paths: paths, DataPackets: 10, OnComplete: pool.Put}
	cycle := func() *Conn {
		c := pool.Get(cfg)
		c.Start()
		for !c.Done() {
			s.RunUntil(s.Now() + sim.Millisecond)
		}
		return c
	}
	c := cycle()
	fwd, rev := c.subs[1].fwd, c.subs[1].rev
	if allocs := testing.AllocsPerRun(100, func() { cycle() }); allocs > 2 {
		t.Errorf("pooled life allocated %.1f objects, want at most 2", allocs)
	}
	if c.subs[1].fwd != fwd || c.subs[1].rev != rev {
		t.Error("a life over the same path slices did not keep its routes")
	}
	cfg.Paths = []Path{paths[0], {Fwd: []*netsim.Link{paths[1].Fwd[0]}, Rev: []*netsim.Link{paths[1].Rev[0]}}}
	if cycle() != c {
		t.Fatal("pool did not recycle the connection")
	}
	if c.subs[1].fwd == fwd || c.subs[1].rev == rev {
		t.Error("a life over other slices (equal links) reused the previous life's routes")
	}
	if c.subs[0].fwd.Links[0] != paths[0].Fwd[0] || c.subs[1].fwd.Links[0] != paths[1].Fwd[0] {
		t.Error("routes do not follow the configured paths")
	}
}

// TestFreshConnFootprint bounds what constructing a fresh two-path
// connection costs the allocator, in bytes and in objects. Each subflow's
// scoreboard ring starts at the receive buffer, rounded up to a power of
// two within [16, 256], since no more can be outstanding: a short flow
// behind a 64-packet buffer must not pay for the 4 KiB rings a long-lived
// flow with the default buffer grows to anyway. The ten objects are the
// Conn (receiver and persist timer inside), its subflow slice (RTO
// timers inside) and its route array, the core's three per-subflow
// slices and two scoreboard rings, the receiver's per-subflow slice, and
// the default algorithm this Config leaves to NewConn.
func TestFreshConnFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := newEnv(1)
	paths := []Path{
		e.path(netsim.NewLink("a", 100, sim.Millisecond, 50)),
		e.path(netsim.NewLink("b", 100, sim.Millisecond, 50)),
	}
	const conns, maxAllocs = 200, 10
	for _, tc := range []struct {
		recvBuf  int64
		maxBytes uint64
	}{{64, 4608}, {0, 10752}} {
		cfg := Config{Paths: paths, DataPackets: 10, RecvBuf: tc.recvBuf}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for range conns {
			NewConn(e.n, cfg)
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / conns
		allocs := (after.Mallocs - before.Mallocs) / conns
		t.Logf("RecvBuf %d: %d B in %d objects per connection", tc.recvBuf, bytes, allocs)
		if bytes > tc.maxBytes || allocs > maxAllocs {
			t.Errorf("RecvBuf %d: a fresh connection takes %d B in %d objects, want at most %d B in %d",
				tc.recvBuf, bytes, allocs, tc.maxBytes, maxAllocs)
		}
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
	var spawn func() *Conn
	spawn = func() *Conn {
		c := pool.Get(Config{
			Paths:       paths,
			DataPackets: 6,
			OnComplete: func(c *Conn) {
				completed++
				pool.Put(c)
				if completed >= 2 {
					return
				}
				// Recycle the conn inside the completing ACK. 1 ms after
				// the recycle — less than the 10 ms RTT, so no ACK of the
				// new life has arrived yet — the new life must still be in
				// its initial state: the old life's final ack (6) must not
				// have touched it.
				recycled := spawn()
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
		return c
	}
	spawn()
	s.RunUntil(30 * sim.Second)
	if completed != 2 {
		t.Fatalf("completed %d transfers, want 2", completed)
	}
}

// TestPooledFlowsFreeEveryPacket: a world of finite pooled flows owns
// no packet once its event queue drains. Each flow's successor recycles
// the connection inside OnComplete, so packets of the finished life
// still in flight reach the new life and must be freed by the FlowID
// guard; random loss on every link and an outage of one forward link
// mid-run strand packets in queues and on the wire. A packet any of
// these paths forgot to free would stay live.
func TestPooledFlowsFreeEveryPacket(t *testing.T) {
	stragglers := 0
	for _, loss := range []float64{0, 0.01, 0.05} {
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			e := newEnv(23)
			l1 := netsim.NewLink("p1", 8, 10*sim.Millisecond, 20)
			l2 := netsim.NewLink("p2", 4, 40*sim.Millisecond, 20)
			paths := []Path{e.path(l1), e.path(l2)}
			for _, p := range paths {
				p.Fwd[0].LossRate, p.Rev[0].LossRate = loss, loss
			}
			pool := NewConnPool(e.n)
			const lives = 12
			started := 0
			var complete func(*Conn)
			spawn := func() {
				started++
				pool.Get(Config{Paths: paths, DataPackets: 80, RecvBuf: 16, OnComplete: complete}).Start()
			}
			complete = func(c *Conn) {
				// Whatever is live now belongs to the life just finished.
				stragglers += e.n.LivePackets()
				pool.Put(c)
				if started < lives {
					spawn()
				}
			}
			spawn()
			var stranded int64
			e.s.At(sim.Second, func() { l2.SetDown(true); stranded = l2.Stats.Drops })
			e.s.At(2*sim.Second, func() { l2.SetDown(false); stranded = l2.Stats.Drops - stranded })
			e.s.Run()
			if started != lives || pool.LiveCount() != 0 || pool.Reuses != lives-1 {
				t.Fatalf("started %d, live %d, reuses %d: want %d flows run to completion through one connection",
					started, pool.LiveCount(), pool.Reuses, lives)
			}
			if stranded == 0 {
				t.Fatal("the outage dropped nothing: no flow was using the link")
			}
			if live := e.n.LivePackets(); live != 0 {
				t.Errorf("%d packets still live after the world drained, want 0", live)
			}
		})
	}
	if stragglers == 0 {
		t.Error("no packet outlived its flow: the FlowID guard went unexercised")
	}
}

// lifeCounts is what a connection's receiver saw during one life.
type lifeCounts struct {
	dupData, overflow int64
	delivered         [2]int64 // per subflow
}

// TestRecycledConnIgnoresPreviousLifeData: under the redundant
// scheduler the slow path still carries copies of a life's data when
// the fast path completes it, and a connection recycled inside
// OnComplete receives those copies with subflow and data sequence
// numbers inside its own windows. The receiver's FlowID guard must drop
// them: every life's duplicate, overflow and per-subflow delivery counts
// equal those of the same flows on fresh connections.
func TestRecycledConnIgnoresPreviousLifeData(t *testing.T) {
	const lives = 4
	run := func(usePool bool) (out []lifeCounts, stragglers int) {
		e := newEnv(5)
		fast := e.path(netsim.NewLink("fast", 8, 5*sim.Millisecond, 50))
		slow := e.path(netsim.NewLink("slow", 2, 50*sim.Millisecond, 50))
		pool := NewConnPool(e.n)
		cfg := Config{Paths: []Path{fast, slow}, Sched: sched.MustNew("redundant"), DataPackets: 400}
		launch := func() {
			if usePool {
				pool.Get(cfg).Start()
			} else {
				NewConn(e.n, cfg).Start()
			}
		}
		cfg.OnComplete = func(c *Conn) {
			r := c.Receiver()
			out = append(out, lifeCounts{r.DupData, r.Overflow, [2]int64{r.SubDelivered(0), r.SubDelivered(1)}})
			stragglers += e.n.LivePackets()
			if usePool {
				pool.Put(c)
			}
			if len(out) < lives {
				launch()
			}
		}
		launch()
		e.s.RunUntil(60 * sim.Second)
		return out, stragglers
	}
	fresh, _ := run(false)
	pooled, stragglers := run(true)
	if len(fresh) != lives || len(pooled) != lives {
		t.Fatalf("completed %d fresh / %d pooled lives, want %d each", len(fresh), len(pooled), lives)
	}
	if stragglers == 0 {
		t.Fatal("no packet outlived its life: the previous life's copies went unexercised")
	}
	for i := range fresh {
		if fresh[i] != pooled[i] {
			t.Errorf("life %d: pooled receiver saw %+v, a fresh one %+v", i, pooled[i], fresh[i])
		}
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

// TestConnPoolRejectsDoublePut: a connection put twice would later be
// handed to two flows at once, so the second Put must panic.
func TestConnPoolRejectsDoublePut(t *testing.T) {
	s := sim.New(1)
	n := netsim.NewNet(s)
	l := netsim.NewLink("l", 10, 5*sim.Millisecond, 50)
	r := netsim.NewLink("r", 10, 5*sim.Millisecond, 50)
	pool := NewConnPool(n)
	c := pool.Get(Config{Paths: []Path{{Fwd: []*netsim.Link{l}, Rev: []*netsim.Link{r}}}, DataPackets: 5})
	c.Start()
	s.Run()
	pool.Put(c)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same connection did not panic")
		}
	}()
	pool.Put(c)
}
