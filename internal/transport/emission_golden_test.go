package transport

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"mptcp/internal/netsim"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
)

// emissionTap sits at the head of a subflow's forward route (a zero-link
// route delivers to it the instant the packet is injected) and folds
// every transmission into the digest before handing it to the real route.
type emissionTap struct {
	nw   *netsim.Net
	next *netsim.Route
	h    hash.Hash
}

func (t *emissionTap) Receive(p *netsim.Packet) {
	fmt.Fprintf(t.h, "%d %d %d %d %t %t\n", t.nw.Sim.Now(), p.SubflowID, p.Seq, p.DataSeq, p.Retx, p.IsProbe)
	t.nw.Send(t.next, p)
}

// tapEmissions interposes an emissionTap on every subflow of c. Routes
// are rebuilt for every life of a pooled connection, so it is called
// after each Get.
func tapEmissions(nw *netsim.Net, c *Conn, h hash.Hash) {
	for i := range c.subs {
		sf := &c.subs[i]
		sf.fwd = netsim.NewRoute(&emissionTap{nw: nw, next: sf.fwd, h: h})
	}
}

// foldCounters appends the connection's final counters to the digest.
func foldCounters(h hash.Hash, c *Conn) {
	fmt.Fprintf(h, "delivered %d oppretx %d penalties %d", c.Delivered(), c.OppRetx, c.Penalties)
	for _, sf := range c.Subflows() {
		fmt.Fprintf(h, " rtos %d fastretx %d", sf.RTOs, sf.FastRetx)
	}
	fmt.Fprintln(h)
}

// TestEmissionSequenceGolden pins the sender's behaviour packet by
// packet: a SHA-256 over every transmission (time, subflow, subflow
// sequence, data sequence, retransmission and probe marks) plus the
// final counters, for small two-path worlds that each drive one part of
// the §6 machinery directly — SACK recovery and its PRR debt, RTO repair
// and reinjection, the receive-buffer countermeasures, the redundant
// replay frontiers, the persist probe, and a pooled connection recycled
// from inside its own OnComplete. The grid goldens in internal/exp pin
// the same code through whole experiments; a mismatch here names the
// mechanism.
func TestEmissionSequenceGolden(t *testing.T) {
	mustParse := func(spec string) (sched.Scheduler, sched.Options) {
		s, o, err := sched.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		return s, o
	}
	worlds := []struct {
		name string
		run  func(e *env, h hash.Hash)
		want string
	}{
		{"random-loss", func(e *env, h hash.Hash) {
			l1 := netsim.NewLink("p1", 10, 5*sim.Millisecond, 30)
			l2 := netsim.NewLink("p2", 4, 30*sim.Millisecond, 30)
			l1.LossRate, l2.LossRate = 0.02, 0.01
			c := NewConn(e.n, Config{Paths: []Path{e.path(l1), e.path(l2)}, DataPackets: 3000})
			tapEmissions(e.n, c, h)
			c.Start()
			e.s.RunUntil(120 * sim.Second)
			foldCounters(h, c)
		}, "47241399f9919759620ff2bd759fef3b14bca042e06da97edd47d6784de34e93"},
		{"path-death", func(e *env, h hash.Hash) {
			l1 := netsim.NewLink("p1", 10, 10*sim.Millisecond, 50)
			l2 := netsim.NewLink("p2", 10, 10*sim.Millisecond, 50)
			c := NewConn(e.n, Config{Paths: []Path{e.path(l1), e.path(l2)}, DataPackets: 6000})
			tapEmissions(e.n, c, h)
			c.Start()
			e.s.RunUntil(1 * sim.Second)
			l2.SetDown(true)
			e.s.RunUntil(4 * sim.Second)
			l2.SetDown(false)
			e.s.RunUntil(120 * sim.Second)
			foldCounters(h, c)
		}, "273a3737239a5f7a5129c26741dc5c2ea5c32dd5f014ab48bf2adc4a34985583"},
		{"rbuf16-minrtt+otr+pen", func(e *env, h hash.Hash) {
			wifi := netsim.NewLink("wifi", 6, 8*sim.Millisecond, 20)
			wifi.LossRate = 0.015
			g3 := netsim.NewLink("3g", 2, 60*sim.Millisecond, 300)
			s, o := mustParse("minrtt+otr+pen")
			c := NewConn(e.n, Config{Paths: []Path{e.path(wifi), e.path(g3)}, Sched: s, SchedOpts: o, RecvBuf: 16})
			tapEmissions(e.n, c, h)
			c.Start()
			e.s.RunUntil(20 * sim.Second)
			foldCounters(h, c)
		}, "1235cce70b28cbf21eaea6e3876c8a9057857ee47cc8d67365d29b3eba0db9d4"},
		{"redundant", func(e *env, h hash.Hash) {
			l1 := netsim.NewLink("p1", 8, 10*sim.Millisecond, 40)
			l2 := netsim.NewLink("p2", 4, 25*sim.Millisecond, 40)
			l1.LossRate = 0.02
			s, o := mustParse("redundant")
			c := NewConn(e.n, Config{Paths: []Path{e.path(l1), e.path(l2)}, Sched: s, SchedOpts: o, DataPackets: 1500})
			tapEmissions(e.n, c, h)
			c.Start()
			e.s.RunUntil(1 * sim.Second)
			l2.SetDown(true) // the replay frontier of subflow 1 falls behind, then catches up
			e.s.RunUntil(2 * sim.Second)
			l2.SetDown(false)
			e.s.RunUntil(120 * sim.Second)
			foldCounters(h, c)
		}, "a690a617389446997667bb085efb55fcda696cc54f6d4d6013f5bc8807758998"},
		{"stalled-app", func(e *env, h hash.Hash) {
			l1 := netsim.NewLink("p1", 10, 10*sim.Millisecond, 100)
			l2 := netsim.NewLink("p2", 5, 20*sim.Millisecond, 100)
			c := NewConn(e.n, Config{Paths: []Path{e.path(l1), e.path(l2)}, RecvBuf: 32})
			tapEmissions(e.n, c, h)
			c.Start()
			e.s.RunUntil(2 * sim.Second)
			c.Receiver().SetAppStalled(true)
			e.s.RunUntil(6 * sim.Second)
			// Lose the window updates on both subflows: only the persist
			// probe can restart the sender.
			for i := range c.subs {
				c.subs[i].rev.Links[0].SetDown(true)
			}
			c.Receiver().SetAppStalled(false)
			e.s.RunUntil(6500 * sim.Millisecond)
			for i := range c.subs {
				c.subs[i].rev.Links[0].SetDown(false)
			}
			e.s.RunUntil(10 * sim.Second)
			foldCounters(h, c)
		}, "aae2f12316175c09c28e18be79ba36099505fd4b26346c9231733ec589f5f40e"},
		{"pool-recycle-in-oncomplete", func(e *env, h hash.Hash) {
			l1 := netsim.NewLink("p1", 8, 10*sim.Millisecond, 20)
			l2 := netsim.NewLink("p2", 4, 25*sim.Millisecond, 20)
			l1.LossRate = 0.01
			paths := []Path{e.path(l1), e.path(l2)}
			pool := NewConnPool(e.n)
			lives := 0
			var spawn func()
			spawn = func() {
				c := pool.Get(Config{Paths: paths, DataPackets: 200, RecvBuf: 64, OnComplete: func(c *Conn) {
					foldCounters(h, c)
					pool.Put(c)
					if lives++; lives < 5 {
						spawn() // the next life starts inside the old life's final ACK
					}
				}})
				tapEmissions(e.n, c, h)
				c.Start()
			}
			spawn()
			e.s.RunUntil(120 * sim.Second)
			fmt.Fprintf(h, "lives %d reuses %d\n", lives, pool.Reuses)
		}, "31889c058a51fd5dbe6bf503a588ab51e7729634533e5eb9a6bf76d3e5c99edb"},
	}
	for i, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			h := sha256.New()
			w.run(newEnv(int64(100+i)), h)
			if got := hex.EncodeToString(h.Sum(nil)); got != w.want {
				t.Errorf("emission digest = %s, want %s", got, w.want)
			}
		})
	}
}
