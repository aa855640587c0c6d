package netsim

import (
	"fmt"

	"mptcp/internal/sim"
)

// Link models a unidirectional store-and-forward link: a drop-tail FIFO
// queue measured in packets, serialisation at RateBps, then PropDelay of
// propagation. A Link may additionally drop arriving packets at random
// (LossRate), modelling wireless interference as in §5 of the paper, and
// its rate may be changed mid-run (SetRate) or the link taken down/up
// (SetDown), modelling coverage changes in the mobility experiment
// (Fig. 17).
//
// The queue is simulated implicitly: each accepted packet is assigned a
// departure time and posted, at that time plus PropDelay, on the link's
// sim.Lane — one event per packet per hop, but one heap entry per busy
// link, since a link's arrivals at its far end are FIFO. Queue occupancy
// at time t is the number of accepted packets whose departure is still in
// the future, tracked with a ring of departure times purged lazily. This
// halves the event count versus separate transmit-complete/arrival events
// and is the main reason the simulator sustains tens of millions of
// packet-hops per second.
type Link struct {
	Name      string
	RateBps   float64  // line rate, bits per second
	PropDelay sim.Time // one-way propagation delay
	QueueCap  int      // drop-tail buffer size in packets (incl. the one in service)
	LossRate  float64  // i.i.d. random drop probability on arrival

	// Tracer, when non-nil, observes state changes made through the
	// setter methods (SetRate, SetDelay, SetDown, SetLossRate). It is
	// consulted only on those control-plane calls, never on the per-
	// packet path, so tracing costs nothing per hop.
	Tracer LinkTracer

	down bool

	// lastDepart is the departure time of the most recently accepted
	// packet; departs is a ring (power-of-two length, grown by doubling)
	// holding the departure times of the queued accepted packets not yet
	// purged — the implicit queue — starting at index head.
	lastDepart   sim.Time
	departs      []sim.Time
	head, queued int

	// lane carries the accepted packets to the far end; bound to the
	// link's world on first use.
	lane *sim.Lane

	Stats LinkStats
}

// LinkStats counts the packets offered to a link and those it lost. Once
// the link drains, the packets it delivered number Arrivals − Drops.
type LinkStats struct {
	Arrivals int64 // packets offered to the link
	Drops    int64 // drop-tail, random and outage losses
}

// LossFraction returns Drops/Arrivals, the per-link loss rate used in
// Fig. 8 and Fig. 13 of the paper.
func (s *LinkStats) LossFraction() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	return float64(s.Drops) / float64(s.Arrivals)
}

// NewLink constructs a link. rateMbps is in megabits per second and
// queueCap in packets; queueCap must be at least 1.
func NewLink(name string, rateMbps float64, delay sim.Time, queueCap int) *Link {
	if queueCap < 1 {
		panic(fmt.Sprintf("netsim: link %s queue capacity %d < 1", name, queueCap))
	}
	return &Link{Name: name, RateBps: rateMbps * 1e6, PropDelay: delay, QueueCap: queueCap}
}

// NewLinkPktPerSec constructs a link whose rate is given in 1500-byte
// packets per second, the unit used by the paper's wired simulations
// (Figs. 8 and 16).
func NewLinkPktPerSec(name string, pktPerSec float64, delay sim.Time, queueCap int) *Link {
	return NewLink(name, pktPerSec*DataPacketSize*8/1e6, delay, queueCap)
}

// LinkTracer observes link state changes. It is defined here (rather
// than importing internal/trace) so netsim stays dependency-free;
// *trace.Tracer satisfies it structurally. what is one of "down", "up",
// "rate", "delay", "loss"; v carries the new value where meaningful
// (Mb/s for rate, seconds for delay, probability for loss, 0 for
// down/up).
type LinkTracer interface {
	LinkEvent(name, what string, v float64)
}

// SetRate changes the line rate. Packets already queued keep their
// departure times (they were scheduled at the old rate); future arrivals
// serialise at the new rate.
func (l *Link) SetRate(rateMbps float64) {
	l.RateBps = rateMbps * 1e6
	if l.Tracer != nil {
		l.Tracer.LinkEvent(l.Name, "rate", rateMbps)
	}
}

// SetDelay changes the propagation delay, modelling a route or radio
// change mid-run (the §5 handover: a new basestation at a different
// distance). Packets the link has already accepted keep the delay that
// applied at acceptance — their arrival events were scheduled when they
// were enqueued — so an in-flight packet is never retimed; only future
// arrivals propagate at the new delay.
func (l *Link) SetDelay(d sim.Time) {
	l.PropDelay = d
	if l.Tracer != nil {
		l.Tracer.LinkEvent(l.Name, "delay", d.Seconds())
	}
}

// SetDown takes the link down (all arrivals dropped) or back up.
func (l *Link) SetDown(down bool) {
	l.down = down
	if l.Tracer != nil {
		what := "up"
		if down {
			what = "down"
		}
		l.Tracer.LinkEvent(l.Name, what, 0)
	}
}

// SetLossRate changes the i.i.d. random drop probability on arrival.
// Prefer it over assigning LossRate directly: it notifies the tracer.
func (l *Link) SetLossRate(p float64) {
	l.LossRate = p
	if l.Tracer != nil {
		l.Tracer.LinkEvent(l.Name, "loss", p)
	}
}

// Down reports whether the link is administratively down.
func (l *Link) Down() bool { return l.down }

// QueueLen returns the instantaneous queue occupancy in packets.
func (l *Link) QueueLen(now sim.Time) int {
	for l.queued > 0 && l.departs[l.head] <= now {
		l.head = (l.head + 1) & (len(l.departs) - 1)
		l.queued--
	}
	return l.queued
}

// txTime returns the serialisation delay for a packet of size bytes.
func (l *Link) txTime(size int) sim.Time {
	return sim.Time(float64(size*8) / l.RateBps * float64(sim.Second))
}

// enqueue offers pkt to the link at the current time; the packet is either
// scheduled to arrive at its next hop or dropped.
func (l *Link) enqueue(n *Net, pkt *Packet) {
	now := n.Sim.Now()
	l.Stats.Arrivals++
	if l.down {
		l.Stats.Drops++
		n.FreePacket(pkt)
		return
	}
	if l.LossRate > 0 && n.Sim.Rand().Float64() < l.LossRate {
		l.Stats.Drops++
		n.FreePacket(pkt)
		return
	}
	if l.QueueLen(now) >= l.QueueCap {
		l.Stats.Drops++
		n.FreePacket(pkt)
		return
	}
	start := now
	if l.lastDepart > start {
		start = l.lastDepart
	}
	depart := start + l.txTime(pkt.Size)
	l.lastDepart = depart
	if l.queued == len(l.departs) {
		d := make([]sim.Time, max(2*l.queued, 8))
		for i := range l.departs {
			d[i] = l.departs[(l.head+i)&(l.queued-1)]
		}
		l.departs, l.head = d, 0
	}
	l.departs[(l.head+l.queued)&(len(l.departs)-1)] = depart
	l.queued++
	if l.lane == nil {
		l.lane = n.Sim.NewLane(n)
	}
	l.lane.Post(depart+l.PropDelay, pkt)
}

// depart completes pkt's crossing of the link when its scheduled event
// fires (at departure time plus PropDelay). If the link is down by then
// (SetDown while the packet was queued or propagating, the §5 mobility
// outage: a dead radio loses in-flight frames too), the packet is
// stranded: counted as one drop and freed. It reports whether the packet
// survived.
func (l *Link) depart(n *Net, pkt *Packet) bool {
	if l.down {
		l.Stats.Drops++
		n.FreePacket(pkt)
		return false
	}
	return true
}
