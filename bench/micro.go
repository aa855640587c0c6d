package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"mptcp/internal/analyze"
	"mptcp/internal/cc"
	"mptcp/internal/core"
	"mptcp/internal/exp"
	"mptcp/internal/metrics"
	"mptcp/internal/netsim"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/trace"
	"mptcp/internal/transport"
)

// micro is the state of one per-layer pass: the metric map being filled
// and the iteration budget. Every driver calls a layer through its
// public entry points only, inside one span per layer.
type micro struct {
	a    childArgs
	rec  *recorder
	root int
	out  map[string]float64
	res  *repResult
}

// n scales a full-size iteration count by the pass's effort.
func (m *micro) n(full int) int {
	return max(int(float64(full)*m.a.Effort), 1000)
}

// layer runs one driver inside its span. A panic fails that layer (its
// remaining metrics stay absent, which the parent reports) but not the
// pass.
func (m *micro) layer(name string, fn func()) {
	sp := m.rec.begin("micro."+name, m.root)
	defer m.rec.end(sp)
	m.res.Ops++
	defer func() {
		if p := recover(); p != nil {
			m.res.fail("per-layer %s: %v", name, p)
		}
	}()
	fn()
}

// perOp times fn, which performs n operations, and returns the cost of
// one: nanoseconds and heap allocations.
func perOp(n int, fn func()) (ns, allocs float64) {
	mt := startMeter()
	fn()
	r := mt.stop()
	return float64(r.wall.Nanoseconds()) / float64(n), float64(r.mallocs) / float64(n)
}

// lcg is a tiny deterministic generator for driver inputs; the drivers
// must not spend their time in math/rand.
type lcg uint64

func (x *lcg) next() uint64 {
	*x = *x*6364136223846793005 + 1442695040888963407
	return uint64(*x >> 33)
}

var sink float64 // keeps measured results alive

func runMicro(a childArgs, rec *recorder, root int, res *repResult) {
	m := &micro{a: a, rec: rec, root: root, out: map[string]float64{}, res: res}
	res.Layers = m.out
	m.layer("sim", m.simLayer)
	m.layer("netsim", m.netsimLayer)
	m.layer("transport", m.transportLayer)
	m.layer("cc", m.ccLayer)
	m.layer("sched", m.schedLayer)
	m.layer("metrics", m.metricsLayer)
	m.layer("trace", m.traceLayer)
	m.layer("workload+analyze", m.workloadLayer)
	m.layer("topo", m.topoLayer)
	m.layer("exp", m.expLayer)
	m.layer("mptcpnet", m.mptcpnetLayer)
}

// --- sim ----------------------------------------------------------------

// reposter keeps the event heap at a constant depth: every dispatch
// posts one successor at a pseudo-random offset.
type reposter struct {
	s *sim.Simulator
	x lcg
}

func (h *reposter) OnEvent(any) {
	h.s.Post(h.s.Now()+sim.Time(1+h.x.next()%uint64(sim.Millisecond)), h, nil)
}

func (m *micro) simLayer() {
	// Post + dispatch at heap depth 1024.
	s := sim.New(m.a.Seed)
	h := &reposter{s: s, x: lcg(m.a.Seed)}
	for i := 0; i < 1024; i++ {
		h.OnEvent(nil)
	}
	run := func(steps uint64) {
		for start := s.Steps(); s.Steps()-start < steps; {
			s.RunUntil(s.Now() + sim.Millisecond)
		}
	}
	run(50_000)
	n := m.n(4_000_000)
	m.out["sim.post_pop_ns"], m.out["sim.post_pop_allocs"] = perOp(n, func() { run(uint64(n)) })

	// Rearming a pending timer, the RTO pattern: 1024 armed timers, each
	// pushed to a new deadline without firing.
	s = sim.New(m.a.Seed)
	timers := make([]*sim.Timer, 1024)
	for i := range timers {
		timers[i] = s.NewTimer(func() {})
		timers[i].ResetAt(sim.Second + sim.Time(i))
	}
	x := lcg(m.a.Seed)
	m.out["sim.timer_rearm_ns"], m.out["sim.timer_rearm_allocs"] = perOp(n, func() {
		for i := 0; i < n; i++ {
			timers[i&1023].ResetAt(sim.Second + sim.Time(x.next()%uint64(sim.Second)))
		}
	})

	// One barrier epoch over 32 idle domains joined in a ring, one shard:
	// the fixed cost sim.Sharded adds to every epoch of the fleet.
	sh := sim.NewSharded(m.a.Seed, 32)
	sh.SetShards(1)
	for i := 0; i < 32; i++ {
		sh.NewPipe(i, (i+1)%32, sim.Millisecond)
	}
	epochs := m.n(400_000)
	m.out["sim.sharded_epoch_ns"], _ = perOp(epochs, func() { sh.Run(sim.Time(epochs) * sim.Millisecond) })

	// 16 busy rings coupled by 50 ms pipes, the fleet's shape: wall at
	// one shard over wall at GOMAXPROCS shards.
	horizon := sim.Time(float64(2*sim.Second) * max(m.a.Effort, 0.05))
	t1 := shardedRings(m.a.Seed, 1, horizon)
	tn := shardedRings(m.a.Seed, runtime.GOMAXPROCS(0), horizon)
	m.out["sim.sharded_speedup"] = t1.Seconds() / tn.Seconds()
}

type noop struct{}

func (noop) OnEvent(any) {}

func shardedRings(seed int64, shards int, horizon sim.Time) time.Duration {
	const domains, population = 16, 64
	sh := sim.NewSharded(seed, domains)
	sh.SetShards(shards)
	for i := 0; i < domains; i++ {
		netsim.NewBenchRing(sh.Domain(i), 4, population)
	}
	for i := 0; i < domains; i++ {
		p := sh.NewPipe(i, (i+1)%domains, 50*sim.Millisecond)
		d := sh.Domain(i)
		var tm *sim.Timer
		tm = d.NewTimer(func() {
			p.Send(noop{}, nil)
			tm.ResetAt(d.Now() + 50*sim.Millisecond)
		})
		tm.ResetAt(d.Now() + 50*sim.Millisecond)
	}
	t0 := time.Now()
	sh.Run(sh.Domain(0).Now() + horizon)
	return time.Since(t0)
}

// --- netsim -------------------------------------------------------------

func (m *micro) netsimLayer() {
	s := sim.New(m.a.Seed)
	netsim.NewBenchRing(s, 4, 256)
	n := m.n(4_000_000)
	m.out["netsim.hop_ns"], m.out["netsim.hop_allocs"] = perOp(n, func() {
		for start := s.Steps(); s.Steps()-start < uint64(n); {
			s.RunUntil(s.Now() + 10*sim.Millisecond)
		}
	})
}

// --- transport ----------------------------------------------------------

// twoPaths builds a world with two private duplex links and returns the
// two-path set over them.
func twoPaths(seed int64, rate [2]float64, delay [2]sim.Time) (*sim.Simulator, *netsim.Net, []transport.Path) {
	s := sim.New(seed)
	nw := netsim.NewNet(s)
	var paths []transport.Path
	for i := 0; i < 2; i++ {
		d := topo.NewDuplex(fmt.Sprintf("p%d", i), rate[i], delay[i], topo.BDPPackets(rate[i], 2*delay[i]))
		paths = append(paths, topo.PathThrough(d))
	}
	return s, nw, paths
}

// perPacket drives one long-lived connection for n delivered packets.
func perPacket(s *sim.Simulator, c *transport.Conn, n int) (ns, allocs, events float64) {
	deliver := func(k int64) {
		for d0 := c.Delivered(); c.Delivered()-d0 < k; {
			s.RunUntil(s.Now() + 10*sim.Millisecond)
		}
	}
	c.Start()
	deliver(int64(n / 10)) // past slow start, rings and freelists at size
	steps := s.Steps()
	ns, allocs = perOp(n, func() { deliver(int64(n)) })
	return ns, allocs, float64(s.Steps()-steps) / float64(n)
}

func (m *micro) transportLayer() {
	n := m.n(1_000_000)
	s, nw, paths := twoPaths(m.a.Seed, [2]float64{100, 100}, [2]sim.Time{5 * sim.Millisecond, 5 * sim.Millisecond})
	c := transport.NewConn(nw, transport.Config{Paths: paths, DataPackets: transport.Infinite})
	ns, allocs, events := perPacket(s, c, n)
	m.out["transport.pkt_ns"], m.out["transport.pkt_allocs"], m.out["transport.events_per_pkt"] = ns, allocs, events
	// What is left of a packet's cost after the engine and link events it
	// rode on; needs netsim.hop_ns, measured just before.
	m.out["transport.pkt_self_ns"] = ns - events*m.out["netsim.hop_ns"]

	// The same under a 16-packet shared receive buffer, asymmetric paths
	// and both §6 countermeasures: app-rbuf's regime.
	sc, opts, err := sched.Parse("minrtt+otr+pen")
	if err != nil {
		panic(err)
	}
	s, nw, paths = twoPaths(m.a.Seed, [2]float64{16, 2}, [2]sim.Time{5 * sim.Millisecond, 50 * sim.Millisecond})
	c = transport.NewConn(nw, transport.Config{Paths: paths, DataPackets: transport.Infinite, RecvBuf: 16, Sched: sc, SchedOpts: opts})
	rn := max(n/5, 1000)
	ns, _, _ = perPacket(s, c, rn)
	m.out["transport.rbuf_pkt_ns"] = ns
	delivered := float64(c.Delivered())
	m.out["transport.oppretx_per_kpkt"] = float64(c.OppRetx) / delivered * 1000
	m.out["transport.penalties_per_kpkt"] = float64(c.Penalties) / delivered * 1000

	// A 10-packet flow from construction to completion: fresh, then
	// through the pool.
	s, nw, paths = twoPaths(m.a.Seed, [2]float64{100, 100}, [2]sim.Time{sim.Millisecond, sim.Millisecond})
	cfg := transport.Config{Paths: paths, DataPackets: 10}
	finish := func(c *transport.Conn) {
		c.Start()
		for !c.Done() {
			s.RunUntil(s.Now() + sim.Millisecond)
		}
	}
	flows := max(m.n(100_000)/5, 1000)
	finish(transport.NewConn(nw, cfg))
	m.out["transport.conn_ns"], m.out["transport.conn_allocs"] = perOp(flows, func() {
		for i := 0; i < flows; i++ {
			finish(transport.NewConn(nw, cfg))
		}
	})
	pool := transport.NewConnPool(nw)
	m.out["transport.pool_cycle_ns"], m.out["transport.pool_cycle_allocs"] = perOp(flows, func() {
		for i := 0; i < flows; i++ {
			c := pool.Get(cfg)
			finish(c)
			pool.Put(c)
		}
	})
	m.out["transport.pool_reuse_ratio"] = float64(pool.Reuses) / float64(pool.Gets)
}

// --- cc -----------------------------------------------------------------

func (m *micro) ccLayer() {
	n := m.n(2_000_000)
	for _, name := range ccNames {
		alg, err := cc.New(name)
		if err != nil {
			panic(err)
		}
		subs := []core.Subflow{{Cwnd: 10, SSThresh: 5, SRTT: 0.01}, {Cwnd: 20, SSThresh: 5, SRTT: 0.1}}
		// One increase per ACK, windows growing as they would.
		m.out["cc."+name+".increase_ns"], _ = perOp(n, func() {
			for i := 0; i < n; i++ {
				r := i & 1
				subs[r].Cwnd += alg.Increase(subs, r)
				if subs[r].Cwnd > 100 {
					subs[r].Cwnd = 10
				}
			}
		})
		m.out["cc."+name+".decrease_ns"], _ = perOp(n, func() {
			for i := 0; i < n; i++ {
				r := i & 1
				sink += alg.Decrease(subs, r)
				subs[r].Cwnd = float64(10 + i&63)
			}
		})
	}
}

// --- sched --------------------------------------------------------------

func (m *micro) schedLayer() {
	n := m.n(2_000_000)
	worst := 0.0
	for _, name := range schedNames {
		s, err := sched.New(name)
		if err != nil {
			panic(err)
		}
		views := []sched.View{
			{Cwnd: 10, Inflight: 4, SRTT: 0.010, Sendable: true, Sent: 100},
			{Cwnd: 20, Inflight: 20, SRTT: 0.050, Sendable: true, Sent: 80},
			{Cwnd: 8, Inflight: 2, SRTT: 0.100, Sendable: true, Sent: 60},
			{Cwnd: 4, Inflight: 1, SRTT: 0.200, Sendable: false, Sent: 40},
		}
		ctx := sched.Ctx{Window: 16}
		picked := 0
		ns, allocs := perOp(n, func() {
			for i := 0; i < n; i++ {
				views[i&3].Inflight = int64(i & 15)
				picked += s.Pick(ctx, views)
			}
		})
		sink += float64(picked)
		m.out["sched."+name+".pick_ns"] = ns
		worst = max(worst, allocs)
	}
	m.out["sched.pick_allocs"] = worst
}

// --- metrics ------------------------------------------------------------

func (m *micro) metricsLayer() {
	n := m.n(2_000_000)
	x := lcg(m.a.Seed)
	sample := func() float64 { return float64(x.next()%1_000_000) / 1e6 }
	sum := metrics.NewSummary()
	m.out["metrics.summary_add_ns"], _ = perOp(n, func() {
		for i := 0; i < n; i++ {
			sum.Add(sample())
		}
	})
	p2 := metrics.NewP2Quantile(0.99)
	m.out["metrics.p2_add_ns"], _ = perOp(n, func() {
		for i := 0; i < n; i++ {
			p2.Add(sample())
		}
	})
	// Merge replays the merged-in summary, so its cost is per sample of
	// that summary: 360 samples is one fleet domain's flows.
	other := metrics.NewSummary()
	for i := 0; i < 360; i++ {
		other.Add(sample())
	}
	merges := max(n/200, 100)
	m.out["metrics.summary_merge_ns"], _ = perOp(merges, func() {
		for i := 0; i < merges; i++ {
			sum.Merge(other)
		}
	})
	sink += sum.Mean() + p2.Value()
}

// --- trace --------------------------------------------------------------

type lineCounter struct{ lines int }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

func (m *micro) traceLayer() {
	n := m.n(4_000_000)
	var off *trace.Tracer
	m.out["trace.off_ns"], _ = perOp(n, func() {
		for i := 0; i < n; i++ {
			off.CwndChange(0, 0, float64(i))
		}
	})
	var clock int64
	on := trace.New(0, func() int64 { clock++; return clock })
	ids := make([]int32, 8)
	for i := range ids {
		ids[i] = on.ConnID()
	}
	m.out["trace.record_ns"], _ = perOp(n, func() {
		for i := 0; i < n; i++ {
			on.CwndChange(ids[i&7], 0, float64(i))
		}
	})
	var lc lineCounter
	t0 := time.Now()
	if err := on.Flush(&lc); err != nil {
		panic(err)
	}
	m.out["trace.flush_lines_per_s"] = float64(lc.lines) / time.Since(t0).Seconds()

	// The dynamics grid under the flap script, tracing off and on; the
	// median of a few alternating pairs, since each run is short.
	e, _ := exp.Get("dynamics")
	cfg := exp.Config{Seed: m.a.Seed, Scale: 0.05, Parallelism: 1, Shards: 1, Scenario: "flap"}
	if m.a.Quick {
		cfg.Scale = 0.01
	}
	var pcts []float64
	for i := 0; i < max(int(2*m.a.Effort), 1); i++ {
		cfg.TraceW = nil
		t0 := time.Now()
		e.Run(cfg)
		offDur := time.Since(t0)
		cfg.TraceW = io.Discard
		t0 = time.Now()
		e.Run(cfg)
		pcts = append(pcts, 100*(time.Since(t0).Seconds()-offDur.Seconds())/offDur.Seconds())
	}
	m.out["trace.dynamics_overhead_pct"] = summarise(pcts).Median
}

// --- workload, analyze ----------------------------------------------------

// cellLine is the JSONL shape of one grid record, the one
// `mptcp-exp -json` writes and internal/analyze reads.
type cellLine struct {
	ID        string             `json:"id"`
	Seed      int64              `json:"seed"`
	Scale     float64            `json:"scale"`
	Algorithm string             `json:"algorithm"`
	Topology  string             `json:"topology"`
	Scenario  string             `json:"scenario,omitempty"`
	Scheduler string             `json:"scheduler,omitempty"`
	Workload  string             `json:"workload,omitempty"`
	RecvBuf   int64              `json:"recv_buf,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (m *micro) workloadLayer() {
	// app-rbuf's grid, one application at a time at app-rbuf's scale; by
	// the filter contract the cells and their seeds are the full grid's.
	// app-rbuf itself is the video quarter, so workload.video.cell_s is
	// its wall_s measured once more.
	w, _ := findWorkload("app-rbuf")
	e, _ := exp.Get(w.ExpID)
	var jsonl bytes.Buffer
	enc := json.NewEncoder(&jsonl)
	for _, app := range appNames {
		cfg := exp.Config{Seed: m.a.Seed, Scale: w.scale(m.a.Quick), Parallelism: 1, Shards: 1, Workload: app}
		sp := m.rec.begin("exp.run[appgrid/"+app+"]", m.root)
		t0 := time.Now()
		r := e.Run(cfg)
		m.out["workload."+app+".cell_s"] = time.Since(t0).Seconds()
		m.rec.end(sp)
		for _, c := range r.Records {
			finite := map[string]float64{}
			for k, v := range c.Metrics {
				if !math.IsNaN(v) && !math.IsInf(v, 0) { // JSON cannot carry them
					finite[k] = v
				}
			}
			if err := enc.Encode(cellLine{ID: r.ID, Seed: cfg.Seed, Scale: cfg.Scale, Algorithm: c.Algorithm, Topology: c.Topology,
				Scenario: c.Scenario, Scheduler: c.Scheduler, Workload: c.Workload, RecvBuf: c.RecvBuf, Metrics: finite}); err != nil {
				panic(err)
			}
		}
	}
	// The analysis pipeline over those records, rendered in memory.
	lines := bytes.Count(jsonl.Bytes(), []byte{'\n'})
	passes := max(m.n(40_000)/max(lines, 1), 1)
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		if err := analyze.NewReport().Read(bytes.NewReader(jsonl.Bytes())); err != nil {
			panic(err)
		}
	}
	m.out["analyze.lines_per_s"] = float64(passes*lines) / time.Since(t0).Seconds()
}

// --- topo, exp ------------------------------------------------------------

func (m *micro) topoLayer() {
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		ft := topo.NewFatTree(topo.FatTreeConfig{K: 8})
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		sink += float64(ft.NumHosts())
	}
	m.out["topo.fattree_build_ms"] = summarise(ms).Median
}

func (m *micro) expLayer() {
	// torus-bulk's cells one at a time over all cores at once: what the
	// default Parallelism buys a user on this machine.
	w, _ := findWorkload("torus-bulk")
	e, _ := exp.Get(w.ExpID)
	cfg := exp.Config{Seed: m.a.Seed, Scale: 2 * w.scale(m.a.Quick) * max(m.a.Effort, 0.25), Shards: 1}
	var dur [2]time.Duration
	for i, par := range []int{1, runtime.GOMAXPROCS(0)} {
		cfg.Parallelism = par
		t0 := time.Now()
		e.Run(cfg)
		dur[i] = time.Since(t0)
	}
	m.out["exp.parallel_speedup"] = dur[0].Seconds() / dur[1].Seconds()
}

// --- mptcpnet, chaos ------------------------------------------------------

func (m *micro) mptcpnetLayer() {
	size := max(int(64*mib*m.a.Effort), 2*mib)
	xfer := func(name string, o xferOpts) (xferResult, *transfer) {
		o.seed, o.cseed, o.traced = m.a.Seed, m.a.Seed, true
		sp := m.rec.begin("mptcpnet."+name, m.root)
		defer m.rec.end(sp)
		t, err := prepare(o)
		if err != nil {
			panic(fmt.Errorf("%s transfer set-up: %w", name, err))
		}
		defer t.close()
		x := t.run(m.rec, sp)
		if x.err != nil {
			panic(fmt.Errorf("%s transfer: %w", name, x.err))
		}
		return x, t
	}

	raw, t := xfer("raw", xferOpts{bytes: size})
	segs := float64(raw.segments)
	rawUs := float64(raw.cpu.Microseconds()) / segs
	m.out["mptcpnet.seg_cpu_us"] = rawUs
	m.out["mptcpnet.seg_allocs"] = float64(raw.mallocs) / segs
	m.out["mptcpnet.seg_alloc_bytes"] = float64(raw.bytes) / segs
	m.out["mptcpnet.datagrams_per_seg"] = float64(raw.sockWrites) / segs
	m.out["mptcpnet.goroutines_per_conn"] = float64(t.goroutines)
	m.out["mptcpnet.write_block_s"] = raw.writeBlock.Seconds()
	m.out["mptcpnet.conn_setup_ms"] = float64(raw.connSetup.Nanoseconds()) / 1e6
	m.out["mptcpnet.close_ms"] = float64(raw.closeDur.Nanoseconds()) / 1e6
	m.out["mptcpnet.sock_write_ns"] = float64(raw.sockWriteNs) / float64(raw.sockWrites)

	// The same bytes over in-memory pipes: what is left is the protocol.
	mem, _ := xfer("mem", xferOpts{bytes: size, inMem: true})
	memUs := float64(mem.cpu.Microseconds()) / float64(mem.segments)
	m.out["mptcpnet.proto_seg_us"] = memUs
	m.out["mptcpnet.sock_share_pct"] = 100 * (1 - memUs/rawUs)

	// A short transfer over the lossy WiFi+3G emulation, for the
	// reliability counters and the emulator's own cost.
	lossy, _ := xfer("lossy", xferOpts{bytes: max(int(float64(mib)*m.a.Effort/2), 128<<10), lossy: true})
	segs = float64(lossy.segments)
	m.out["mptcpnet.retx_ratio"] = float64(lossy.stats.SegsRetx) / segs
	m.out["mptcpnet.reinject_ratio"] = float64(lossy.stats.Reinjects) / segs
	m.out["mptcpnet.dup_data_ratio"] = float64(lossy.rxDup) / segs
	// Every emulated path here has a delay, so the inner socket write
	// happens later on a timer: the time inside the outer WriteTo is the
	// emulator's alone.
	m.out["chaos.path_write_ns"] = float64(lossy.pathWriteNs) / float64(lossy.pathWrites)
}
