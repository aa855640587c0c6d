// Package topo builds the links and the data-centre fabrics of the
// paper's evaluation. A Duplex is the basic building block: a pair of
// directed netsim.Links with identical properties, mutable mid-run
// (SetDown, SetDelay, SetLossRate) so the scenario engine in
// internal/scenario can script outages, handovers and rate ramps over
// any world; PathThrough assembles duplexes into a transport.Path. The
// ad-hoc worlds of §2, §3 and §5 (meshes, the five-link torus, the
// dual-homed server, the WiFi/3G client) are built from these in
// internal/exp's scene catalogue; the §4 FatTree and BCube, whose
// wiring and path choice are the topology itself, are built here.
package topo

import (
	"mptcp/internal/netsim"
	"mptcp/internal/sim"
	"mptcp/internal/transport"
)

// Duplex is a bidirectional link: two directed netsim.Links.
type Duplex struct {
	AB *netsim.Link // "forward" direction
	BA *netsim.Link // "reverse" direction
}

// NewDuplex creates a duplex link; both directions share rate, delay and
// buffer size.
func NewDuplex(name string, rateMbps float64, delay sim.Time, queue int) *Duplex {
	return &Duplex{
		AB: netsim.NewLink(name+"/ab", rateMbps, delay, queue),
		BA: netsim.NewLink(name+"/ba", rateMbps, delay, queue),
	}
}

// NewDuplexPkt creates a duplex link with the rate in 1500-byte packets
// per second, the unit of the paper's wired simulations.
func NewDuplexPkt(name string, pktPerSec float64, delay sim.Time, queue int) *Duplex {
	return &Duplex{
		AB: netsim.NewLinkPktPerSec(name+"/ab", pktPerSec, delay, queue),
		BA: netsim.NewLinkPktPerSec(name+"/ba", pktPerSec, delay, queue),
	}
}

// SetDown takes both directions down or up.
func (d *Duplex) SetDown(down bool) {
	d.AB.SetDown(down)
	d.BA.SetDown(down)
}

// SetLossRate sets an i.i.d. loss rate on both directions.
func (d *Duplex) SetLossRate(p float64) {
	d.AB.SetLossRate(p)
	d.BA.SetLossRate(p)
}

// Trace attaches a link tracer to both directions, so scenario-driven
// state changes (outages, handovers, rate ramps) land in the trace.
func (d *Duplex) Trace(lt netsim.LinkTracer) {
	d.AB.Tracer = lt
	d.BA.Tracer = lt
}

// SetDelay changes the propagation delay of both directions; packets
// already accepted by either direction keep their old delay (see
// netsim.Link.SetDelay).
func (d *Duplex) SetDelay(delay sim.Time) {
	d.AB.SetDelay(delay)
	d.BA.SetDelay(delay)
}

// Delay returns the forward direction's propagation delay.
func (d *Duplex) Delay() sim.Time { return d.AB.PropDelay }

// Rate returns the forward direction's line rate in Mb/s.
func (d *Duplex) Rate() float64 { return d.AB.RateBps / 1e6 }

// SetRate changes the forward direction's line rate (Mb/s); the reverse
// (ACK) direction keeps its own.
func (d *Duplex) SetRate(mbps float64) { d.AB.SetRate(mbps) }

// PathThrough builds a transport.Path traversing the duplexes in order
// (forward over AB, ACKs back over BA in reverse order).
func PathThrough(ds ...*Duplex) transport.Path {
	var p transport.Path
	for _, d := range ds {
		p.Fwd = append(p.Fwd, d.AB)
	}
	for i := len(ds) - 1; i >= 0; i-- {
		p.Rev = append(p.Rev, ds[i].BA)
	}
	return p
}

// The §4 data centres (FatTree, BCube) build every link alike: the
// paper's 100 Mb/s, 20 µs of propagation and a 100-packet buffer.
const (
	fabricRateMbps  = 100
	fabricDelay     = 20 * sim.Microsecond
	fabricQueuePkts = 100
)

func newFabricLink(name string) *netsim.Link {
	return netsim.NewLink(name, fabricRateMbps, fabricDelay, fabricQueuePkts)
}

// BDPPackets returns the bandwidth-delay product in 1500-byte packets for
// rate (Mb/s) and round-trip time.
func BDPPackets(rateMbps float64, rtt sim.Time) int {
	n := int(rateMbps * 1e6 * rtt.Seconds() / (netsim.DataPacketSize * 8))
	if n < 2 {
		n = 2
	}
	return n
}

// BDPPacketsPkt is BDPPackets for a rate given in packets per second.
func BDPPacketsPkt(pktPerSec float64, rtt sim.Time) int {
	n := int(pktPerSec * rtt.Seconds())
	if n < 2 {
		n = 2
	}
	return n
}
