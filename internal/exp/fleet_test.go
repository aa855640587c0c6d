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
// data packets, from the initial window of 2, over a 1000 pkt/s link
// with 45 ms propagation each way:
//
//	data tx     = 1500·8 / 12e6 s  = 1 ms exactly
//	ack tx      = 40·8 / 12e6 s    = 26666 ns (truncated)
//	the 1st packet's ack lands at dataTx + 45 ms + ackTx + 45 ms, and
//	slow start sends the 3rd and 4th back to back;
//	the 4th's ack lands 2·dataTx + 45 ms + ackTx + 45 ms after that.
//
// FCT = 3·dataTx + 2·(45 ms + ackTx + 45 ms), plus each round's send
// jitter: its first packet waits a uniform draw of at most 100 µs, and
// its second queues behind the first's serialisation anyway.
func TestFleetFCTHandComputed(t *testing.T) {
	s := sim.New(7)
	n := netsim.NewNet(s)
	fwd := netsim.NewLinkPktPerSec("fwd", 1000, 45*sim.Millisecond, 100)
	rev := netsim.NewLinkPktPerSec("rev", 1000, 45*sim.Millisecond, 100)
	c := transport.NewConn(n, transport.Config{
		Paths:       []transport.Path{{Fwd: []*netsim.Link{fwd}, Rev: []*netsim.Link{rev}}},
		DataPackets: 4,
	})
	c.Start()
	s.RunUntil(5 * sim.Second)
	if !c.Done() {
		t.Fatal("flow did not complete")
	}
	want, jitter := fourPacketFCT()
	if got := c.CompletedAt() - c.StartedAt(); got < want || got > want+jitter {
		t.Errorf("FCT %v, want %v plus at most %v of send jitter", got, want, jitter)
	}
}

// fourPacketFCT returns TestFleetFCTHandComputed's hand-computed
// completion time of a 4-packet flow and the most its two rounds' send
// jitter adds to it.
func fourPacketFCT() (fct, jitter sim.Time) {
	dataBits, ackBits := float64(netsim.DataPacketSize*8), float64(netsim.AckPacketSize*8)
	dataTx := sim.Time(dataBits / 12e6 * float64(sim.Second))
	ackTx := sim.Time(ackBits / 12e6 * float64(sim.Second))
	return 3*dataTx + 2*(45*sim.Millisecond+ackTx+45*sim.Millisecond), 2 * 100 * sim.Microsecond
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
// per-world slabs, every arrival shares its group's bound completion
// function and a fresh connection is one block of 9 objects, so an
// arrival pays for its algorithm and scheduler objects and little else:
// this cell's 590 arrivals take ≈5 840 allocations, 9.9 each, of which
// its 151 fresh connections take 1 359. Connections of 22 objects would
// come to ≈13.3 per arrival; a heap object per packet of the high-water
// mark and a closure per arrival would add ≈5 more.
func TestFleetCellAllocsPerArrival(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var out fleetOut
	allocs := testing.AllocsPerRun(1, func() {
		out = runFleetCell(Config{Seed: CellSeed(5, 0), Scale: 0.05}.norm(), "MPTCP", "minrtt")
	})
	if per := allocs / float64(out.arrivals); per > 10 {
		t.Errorf("%.0f allocations for %d arrivals = %.1f per arrival, want at most 10", allocs, out.arrivals, per)
	}
}
