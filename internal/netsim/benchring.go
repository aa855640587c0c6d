package netsim

import (
	"fmt"

	"mptcp/internal/sim"
)

// BenchRing is the engine-benchmark workload of the repository
// benchmark (bash bench/run.sh, netsim.hop_ns and netsim.hop_allocs): a
// ring of store-and-forward links with a fixed population of circulating
// packets. Every delivery immediately re-injects, so the steady state is
// a pure packet-hop event stream with no endpoint logic — one event per
// packet per hop.
type BenchRing struct {
	Net   *Net
	route *Route
}

// NewBenchRing builds the ring on s, seeds the packet population and
// runs a warm-up so the event heap, freelists and queue arrays are at
// steady-state size: after it returns, driving the simulator performs
// zero allocations per hop.
func NewBenchRing(s *sim.Simulator, nLinks, population int) *BenchRing {
	n := NewNet(s)
	links := make([]*Link, nLinks)
	for i := range links {
		links[i] = NewLink(fmt.Sprintf("ring%d", i), 1e5, sim.Millisecond, 1<<20)
	}
	r := &BenchRing{Net: n}
	r.route = NewRoute(r, links...)
	for i := 0; i < population; i++ {
		p := n.AllocPacket()
		p.Size = DataPacketSize
		n.Send(r.route, p)
	}
	s.RunUntil(s.Now() + 2*sim.Second)
	return r
}

// Receive implements Endpoint by re-injecting a fresh packet, keeping
// the population constant.
func (r *BenchRing) Receive(p *Packet) {
	r.Net.FreePacket(p)
	q := r.Net.AllocPacket()
	q.Size = DataPacketSize
	r.Net.Send(r.route, q)
}
