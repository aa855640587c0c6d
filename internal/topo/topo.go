// Package topo builds the network topologies of the paper's evaluation.
// They are ad-hoc wired scenarios (§2, §3, §5), the five-link torus of
// Fig. 7, the dual-homed server of §3, the WiFi/3G wireless client of
// §5, and the FatTree and BCube data centres of §4.
//
// All topologies are expressed as directed netsim.Links assembled into
// transport.Paths. A Duplex is the basic building block: a pair of
// directed links with identical properties, mutable mid-run (SetDown,
// SetDelay, SetLossRate) so the scenario engine in
// internal/scenario can script outages, handovers and rate ramps over
// any topology. The experiment grids (tournament, dynamics, schedgrid)
// reference each topology's scriptable links by index in the order the
// topology documents.
package topo

import (
	"fmt"

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

// Torus is the five-bottleneck-link ring of Fig. 7: links A..E, with five
// two-path flows; flow i may use link i and link (i+1) mod 5, so every
// link is shared by exactly two flows.
type Torus struct {
	Links []*Duplex // 5 entries: A, B, C, D, E
}

// TorusLinkNames are the paper's labels for the five links.
var TorusLinkNames = []string{"A", "B", "C", "D", "E"}

// NewTorus builds the torus. rates[i] is link i's capacity in packets per
// second; RTT is the per-path round-trip time (split evenly between
// propagation directions); buffers are one bandwidth-delay product.
func NewTorus(rates []float64, rtt sim.Time) *Torus {
	if len(rates) != 5 {
		panic("topo: torus needs exactly 5 link rates")
	}
	t := &Torus{}
	for i, r := range rates {
		buf := BDPPacketsPkt(r, rtt)
		t.Links = append(t.Links, NewDuplexPkt("torus-"+TorusLinkNames[i], r, rtt/2, buf))
	}
	return t
}

// FlowPaths returns the two single-link paths of flow i (0..4): one over
// link i, one over link (i+1) mod 5.
func (t *Torus) FlowPaths(i int) []transport.Path {
	return []transport.Path{
		PathThrough(t.Links[i]),
		PathThrough(t.Links[(i+1)%5]),
	}
}

// Wireless models the §5 mobile client: a WiFi path (high rate, short
// RTT, random loss from interference, shallow basestation buffer) and a
// 3G path (low rate, overbuffered so RTTs reach seconds, negligible
// radio loss).
type Wireless struct {
	WiFi *Duplex
	G3   *Duplex
}

// WirelessConfig sets the two radio links' characteristics. Every field
// is taken as given: a zero loss rate is a loss-free radio.
type WirelessConfig struct {
	WiFiMbps  float64
	WiFiDelay sim.Time // one-way
	WiFiLoss  float64  // data-direction loss; ACKs lose a quarter of it
	WiFiBuf   int      // packets
	G3Mbps    float64
	G3Delay   sim.Time // one-way
	G3Loss    float64
	G3Buf     int // packets
}

// NewWireless builds the wireless client topology.
func NewWireless(cfg WirelessConfig) *Wireless {
	w := &Wireless{
		WiFi: NewDuplex("wifi", cfg.WiFiMbps, cfg.WiFiDelay, cfg.WiFiBuf),
		G3:   NewDuplex("3g", cfg.G3Mbps, cfg.G3Delay, cfg.G3Buf),
	}
	// Interference losses hit the radio segment in both directions; the
	// 3G radio link is clean but deeply buffered.
	w.WiFi.AB.LossRate = cfg.WiFiLoss
	w.WiFi.BA.LossRate = cfg.WiFiLoss / 4 // ACKs are small; lose fewer
	w.G3.AB.LossRate = cfg.G3Loss
	return w
}

// Paths returns the multipath client's two paths: WiFi first, 3G second.
func (w *Wireless) Paths() []transport.Path {
	return []transport.Path{PathThrough(w.WiFi), PathThrough(w.G3)}
}

// DualHomed is the §3 multihomed-server testbed: a server with two
// access links (Link1, Link2), each shared by a set of clients, with an
// extra latency leg on each client path emulating the wide area (the
// paper inserts 10 ms with dummynet).
type DualHomed struct {
	Link1, Link2 *Duplex
}

// NewDualHomed builds the server with two rateMbps access links and wan
// one-way latency added on each path.
func NewDualHomed(rateMbps float64, wan sim.Time, queue int) *DualHomed {
	return &DualHomed{
		Link1: NewDuplex("server-link1", rateMbps, wan, queue),
		Link2: NewDuplex("server-link2", rateMbps, wan, queue),
	}
}

// ClientPath returns a single-path route through access link 1 or 2.
func (d *DualHomed) ClientPath(link int) []transport.Path {
	switch link {
	case 1:
		return []transport.Path{PathThrough(d.Link1)}
	case 2:
		return []transport.Path{PathThrough(d.Link2)}
	}
	panic(fmt.Sprintf("topo: dual-homed link %d out of range", link))
}

// MultipathPaths returns the two-path route of a multipath client.
func (d *DualHomed) MultipathPaths() []transport.Path {
	return []transport.Path{PathThrough(d.Link1), PathThrough(d.Link2)}
}
