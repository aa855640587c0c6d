package exp

import (
	"testing"

	"mptcp/internal/netsim"
	"mptcp/internal/sim"
	"mptcp/internal/transport"
)

// TestFleetFCTHandComputed pins the flow-completion-time definition the
// fleet experiment records (CompletedAt − StartedAt: Start until the
// final data packet is cumulatively acknowledged at the sender) against
// a timeline small enough to compute by hand. One single-path flow of 4
// data packets, initial cwnd 4, jitter off, over a 1000 pkt/s link with
// 45 ms propagation each way:
//
//	data tx     = 1500·8 / 12e6 s  = 1 ms exactly
//	ack tx      = 40·8 / 12e6 s    = 26666 ns (truncated)
//	4th packet finishes serialising at 4 ms, arrives 4+45 = 49 ms;
//	its ack departs 49 ms + ackTx and lands 45 ms later.
//
// FCT = 4·dataTx + 45 ms + ackTx + 45 ms.
func TestFleetFCTHandComputed(t *testing.T) {
	s := sim.New(7)
	n := netsim.NewNet(s)
	fwd := netsim.NewLinkPktPerSec("fwd", 1000, 45*sim.Millisecond, 100)
	rev := netsim.NewLinkPktPerSec("rev", 1000, 45*sim.Millisecond, 100)
	c := transport.NewConn(n, transport.Config{
		Paths:       []transport.Path{{Fwd: []*netsim.Link{fwd}, Rev: []*netsim.Link{rev}}},
		DataPackets: 4,
		InitialCwnd: 4,
		SendJitter:  -1,
	})
	c.Start()
	s.RunUntil(5 * sim.Second)
	if !c.Done() {
		t.Fatal("flow did not complete")
	}

	dataBits, ackBits := float64(netsim.DataPacketSize*8), float64(netsim.AckPacketSize*8)
	dataTx := sim.Time(dataBits / 12e6 * float64(sim.Second))
	ackTx := sim.Time(ackBits / 12e6 * float64(sim.Second))
	want := 4*dataTx + 45*sim.Millisecond + ackTx + 45*sim.Millisecond
	if got := c.CompletedAt() - c.StartedAt(); got != want {
		t.Errorf("FCT %v, want %v", got, want)
	}
}

// TestFleetCountsIncompleteFlows is the regression test for the goodput
// undercount: g.pkts grew only in OnComplete, so packets delivered by
// flows still in flight at the horizon vanished from goodput_mbps. The
// cell must pick those up from the pools' live sets at merge time and
// report the in-flight population explicitly.
func TestFleetCountsIncompleteFlows(t *testing.T) {
	out := runFleetCell(Config{Seed: CellSeed(5, 0), Scale: 0.05}.norm(), "MPTCP", "minrtt")
	if out.completed == 0 {
		t.Fatal("no flows completed — the cell is too small to prove anything")
	}
	if out.incomplete == 0 {
		t.Fatal("no flows in flight at the horizon — the regression check is vacuous at this seed/scale")
	}
	// Every churn arrival spawns exactly one pooled connection and every
	// completion returns it, so the population must balance exactly.
	if out.arrivals != out.completed+out.incomplete {
		t.Errorf("arrivals %d != completed %d + incomplete %d", out.arrivals, out.completed, out.incomplete)
	}
	if out.partial <= 0 {
		t.Errorf("in-flight flows delivered no packets (partial=%d); goodput would still undercount", out.partial)
	}
}

// TestFleetCellAllocsPerArrival bounds what one fleet cell costs the
// allocator per Poisson arrival, set-up included. Packets come from
// per-world slabs and every arrival shares its group's bound completion
// function, so an arrival pays for its algorithm and scheduler objects
// and little else (≈14 allocations). A heap object per packet of the
// high-water mark and a closure per arrival would come to ≈19.
func TestFleetCellAllocsPerArrival(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var out fleetOut
	allocs := testing.AllocsPerRun(1, func() {
		out = runFleetCell(Config{Seed: CellSeed(5, 0), Scale: 0.05}.norm(), "MPTCP", "minrtt")
	})
	if per := allocs / float64(out.arrivals); per > 16 {
		t.Errorf("%.0f allocations for %d arrivals = %.1f per arrival, want at most 16", allocs, out.arrivals, per)
	}
}
