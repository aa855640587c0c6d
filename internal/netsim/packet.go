// Package netsim implements the simulator's packet-level network model.
// Its links store and forward, with finite drop-tail buffers,
// propagation delay, optional random loss and time-varying rate (for the
// wireless scenarios of §5 of the paper).
//
// The model is intentionally minimal but faithful to the paper's custom
// simulator: a packet traverses an explicit route (a sequence of links),
// each link serialises packets at its line rate into a drop-tail queue
// measured in packets, and delivery at the far end of the final link hands
// the packet to an Endpoint (a TCP or MPTCP receiver model).
package netsim

import "mptcp/internal/sim"

// Packet is a simulated TCP/MPTCP segment. One struct serves both data and
// ACK packets; the endpoint a route delivers to knows which it receives,
// and reads only that kind's fields. Packet counts, not bytes, define
// window and buffer occupancy (the paper maintains windows in packets);
// Size is used only for serialisation time.
type Packet struct {
	// Routing state.
	route *Route
	hop   int

	// Size in bytes on the wire (headers included).
	Size int

	// FlowID identifies the owning connection, SubflowID the subflow
	// within it. Single-path TCP uses SubflowID 0.
	FlowID    int
	SubflowID int

	// Subflow sequence space, in packets. Seq is the subflow sequence
	// number of a data packet; Ack is the cumulative subflow
	// acknowledgment carried by an ACK.
	Seq int64
	Ack int64

	// Connection-level (data) sequence space, in packets. DataSeq is the
	// data sequence number carried by a data packet (§6 of the paper:
	// "an additional data sequence number ... stating where in the
	// application data stream the payload should be placed"). DataAck is
	// the explicit data-level cumulative acknowledgment carried in an
	// option on ACKs; RcvWnd is the receive window, in packets, relative
	// to DataAck.
	DataSeq int64
	DataAck int64
	RcvWnd  int64

	// IsProbe marks a zero-window probe: it occupies no sequence space
	// and only elicits an ACK from the receiver (TCP persist timer).
	IsProbe bool

	// Timestamp echoing for RTT measurement, as with the TCP timestamp
	// option: SentAt is stamped by the sender, echoed back in EchoTS.
	SentAt sim.Time
	EchoTS sim.Time

	// Retx marks a subflow-level retransmission. The simulator never
	// reads it; internal/transport's TestEmissionSequenceGolden hashes it
	// into every emission record.
	Retx bool

	// HasSack/SackSeq carry a one-packet selective acknowledgment: the
	// out-of-order subflow sequence number whose arrival generated this
	// ACK. Because every data packet is acknowledged individually, the
	// sender's scoreboard converges to the exact hole set, modelling the
	// SACK option that the paper's Linux implementation relies on.
	HasSack bool
	SackSeq int64
}

// DataPacketSize and AckPacketSize are the wire sizes used throughout the
// reproduction: a 1500-byte MSS-sized segment and a 40-byte pure ACK.
const (
	DataPacketSize = 1500
	AckPacketSize  = 40
)

// Endpoint consumes packets delivered by the network.
type Endpoint interface {
	Receive(pkt *Packet)
}

// Route is a unidirectional path: the packet crosses Links in order and is
// then handed to Dest.
type Route struct {
	Links []*Link
	Dest  Endpoint
}

// NewRoute builds a route over links terminating at dest.
func NewRoute(dest Endpoint, links ...*Link) *Route {
	return &Route{Links: links, Dest: dest}
}

// Net owns the simulator handle and a packet freelist. All senders and
// links in one experiment share a single Net.
type Net struct {
	Sim  *sim.Simulator
	free []*Packet
	made int // packets carved from slabs so far
}

// Slab sizes: a refill of an empty freelist carves as many packets as
// the Net has already made, at least slabMin and at most slabMax, so a
// world whose packet high-water mark is N costs O(log N + N/slabMax)
// allocations instead of N.
const (
	slabMin = 16
	slabMax = 256
)

// freeHop marks a packet on the freelist in its hop field, which no
// packet in flight can hold; FreePacket panics on a packet so marked.
const freeHop = -1

// NewNet creates a network bound to s.
func NewNet(s *sim.Simulator) *Net {
	return &Net{Sim: s}
}

// AllocPacket returns a zeroed packet from the freelist, refilling the
// freelist from a new slab when it is empty.
func (n *Net) AllocPacket() *Packet {
	if len(n.free) == 0 {
		slab := make([]Packet, min(max(n.made, slabMin), slabMax))
		for i := range slab {
			slab[i].hop = freeHop
			n.free = append(n.free, &slab[i])
		}
		n.made += len(slab)
	}
	p := n.free[len(n.free)-1]
	n.free = n.free[:len(n.free)-1]
	*p = Packet{}
	return p
}

// FreePacket returns a packet to the freelist. The caller must not touch
// the packet afterwards; freeing it a second time panics.
func (n *Net) FreePacket(p *Packet) {
	if p.hop == freeHop {
		panic("netsim: packet freed twice")
	}
	p.hop = freeHop
	n.free = append(n.free, p)
}

// LivePackets returns the number of packets allocated and not yet freed:
// those in flight, queued, or held by an endpoint. A drained world has
// none.
func (n *Net) LivePackets() int { return n.made - len(n.free) }

// Send injects pkt into the network along route. Ownership of pkt passes
// to the network; it is freed automatically if dropped.
func (n *Net) Send(route *Route, pkt *Packet) {
	pkt.route = route
	pkt.hop = 0
	n.forward(pkt)
}

// SendAt injects pkt along route at time at, the zero-allocation
// replacement for scheduling a closure over Send (e.g. the sender-side
// transmission jitter). Injection at or before the current instant sends
// immediately.
func (n *Net) SendAt(at sim.Time, route *Route, pkt *Packet) {
	if at <= n.Sim.Now() {
		n.Send(route, pkt)
		return
	}
	pkt.route = route
	pkt.hop = 0
	n.Sim.Post(at, n, pkt)
}

// OnEvent implements sim.Handler; it is engine plumbing, not part of the
// public surface. A packet event is either a delayed injection (hop 0,
// scheduled by SendAt) or the completed crossing of route link hop-1
// (scheduled by Link.enqueue), which drops the packet if that link went
// down while it was on it.
func (n *Net) OnEvent(arg any) {
	pkt := arg.(*Packet)
	if pkt.hop > 0 && !pkt.route.Links[pkt.hop-1].depart(n, pkt) {
		return // stranded: the link went down mid-flight
	}
	n.forward(pkt)
}

// forward advances pkt to its next link, or delivers it.
func (n *Net) forward(pkt *Packet) {
	if pkt.hop >= len(pkt.route.Links) {
		pkt.route.Dest.Receive(pkt)
		return
	}
	link := pkt.route.Links[pkt.hop]
	pkt.hop++
	link.enqueue(n, pkt)
}
