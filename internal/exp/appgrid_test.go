package exp

import (
	"testing"

	"mptcp/internal/netsim"
	"mptcp/internal/sim"
	"mptcp/internal/transport"
	"mptcp/internal/workload"
)

// appGridRecord finds the appgrid record for one cell.
func appGridRecord(t *testing.T, res *Result, wl, spec, alg, topo string) Record {
	t.Helper()
	for _, r := range res.Records {
		if r.Workload == wl && r.Scheduler == spec && r.Algorithm == alg && r.Topology == topo {
			return r
		}
	}
	t.Fatalf("no record for %s/%s/%s/%s", wl, spec, alg, topo)
	return Record{}
}

// TestAppGridVideoCountermeasuresCutRebuffering is the acceptance pin
// for the application grid: on the busy-wireless column under the
// handover script, the §6 countermeasures must translate into an
// application-visible win — the video workload rebuffers less and
// completes more chunks than under plain minrtt, for both algorithms,
// at the identical cell seeds. At this seed/scale the measured gaps are
// wide (rebuffer ratio 0.71 → 0.54 for MPTCP, 0.80 → 0.64 for OLIA;
// completed chunks 17 → 30 and 13 → 23), so the margins below trip only
// on a real regression, not realisation noise.
func TestAppGridVideoCountermeasuresCutRebuffering(t *testing.T) {
	e, ok := Get("appgrid")
	if !ok {
		t.Fatal("appgrid not registered")
	}
	res := e.Run(Config{Seed: 42, Scale: 0.2, Workload: "video"})
	for _, alg := range appAlgs() {
		plain := appGridRecord(t, res, "video", "minrtt", alg, "wifi3g")
		cured := appGridRecord(t, res, "video", "minrtt+otr+pen", alg, "wifi3g")
		pr, pok := plain.Metrics["rebuffer_ratio"]
		cr, cok := cured.Metrics["rebuffer_ratio"]
		if !pok || !cok {
			t.Fatalf("%s: rebuffer_ratio missing (plain %v, cured %v)", alg, pok, cok)
		}
		if cr > pr-0.1 {
			t.Errorf("%s: countermeasures rebuffer ratio %.3f vs plain %.3f; want lower by ≥ 0.1", alg, cr, pr)
		}
		if cc, pc := cured.Metrics["completed"], plain.Metrics["completed"]; cc < 1.5*pc {
			t.Errorf("%s: countermeasures completed %.0f chunks vs plain %.0f; want ≥ 1.5×", alg, cc, pc)
		}
	}
}

// TestAppGridPLTHandComputed pins the page-load-time definition against
// a timeline computed by hand, through the real transport: a two-object
// page (4 packets each, the second depending on the first) over the
// fleet test's link — 1000 pkt/s, 45 ms propagation each way, initial
// cwnd 4, jitter off. Each object is one flow whose FCT is
//
//	4·dataTx + 45 ms + ackTx + 45 ms
//
// (dataTx = 1500·8/12e6 s, ackTx = 40·8/12e6 s), the dependent object
// starts the instant its dependency completes, and the PLT is exactly
// two FCTs. The spawner runs through a ConnPool, so the dependent
// object recycles the completing connection inside OnComplete — the
// pooled-workload path the appgrid cells use.
func TestAppGridPLTHandComputed(t *testing.T) {
	s := sim.New(7)
	n := netsim.NewNet(s)
	fwd := netsim.NewLinkPktPerSec("fwd", 1000, 45*sim.Millisecond, 100)
	rev := netsim.NewLinkPktPerSec("rev", 1000, 45*sim.Millisecond, 100)
	paths := []transport.Path{{Fwd: []*netsim.Link{fwd}, Rev: []*netsim.Link{rev}}}
	pool := transport.NewConnPool(n)
	env := &workload.Env{Sim: s, End: 10 * sim.Second}
	env.Spawn = func(pkts int64, done func()) {
		c := pool.Get(transport.Config{
			Paths:       paths,
			DataPackets: pkts,
			InitialCwnd: 4,
			SendJitter:  -1,
			OnComplete: func(c *transport.Conn) {
				pool.Put(c)
				done()
			},
		})
		c.Start()
	}
	var plt sim.Time
	workload.FetchPage(env, workload.Page{Objects: []workload.Object{
		{Pkts: 4},
		{Pkts: 4, Deps: []int{0}},
	}}, func(d sim.Time) { plt = d })
	s.RunUntil(10 * sim.Second)

	dataBits, ackBits := float64(netsim.DataPacketSize*8), float64(netsim.AckPacketSize*8)
	dataTx := sim.Time(dataBits / 12e6 * float64(sim.Second))
	ackTx := sim.Time(ackBits / 12e6 * float64(sim.Second))
	fct := 4*dataTx + 45*sim.Millisecond + ackTx + 45*sim.Millisecond
	if want := 2 * fct; plt != want {
		t.Fatalf("PLT = %v, want exactly %v (2 × hand-computed FCT)", plt, want)
	}
	if pool.Reuses != 1 {
		t.Errorf("pool reuses = %d, want 1 (dependent object recycles the root's connection)", pool.Reuses)
	}
}
