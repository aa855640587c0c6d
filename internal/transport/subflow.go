package transport

import (
	"mptcp/internal/netsim"
	"mptcp/internal/proto"
	"mptcp/internal/sim"
)

// Subflow is the simulator shell of one sender-side subflow: its data
// and ACK routes, its retransmission timer and its send-jitter FIFO
// clock. The subflow's protocol state — scoreboard, loss recovery, RTT
// estimator — lives in the connection's protocol core. It implements
// netsim.Endpoint to consume ACKs arriving on its reverse route, and
// sim.Handler to fire its retransmission timer.
type Subflow struct {
	// PktsSent, PktsRetx, RTOs and FastRetx, kept by the protocol core.
	*proto.SubflowStats

	conn     *Conn
	id       int
	fwd, rev *netsim.Route // data to the receiver; ACKs back to this subflow
	rto      sim.Timer

	// nextSend keeps the subflow's transmissions in FIFO order under the
	// send jitter: no packet leaves before the one emitted ahead of it.
	nextSend sim.Time
}

// OnEvent fires the retransmission timer (sim.Handler).
func (sf *Subflow) OnEvent(any) { sf.conn.core.OnRTO(sf.conn.now(), sf.id) }

// Receive consumes an ACK delivered by the network (netsim.Endpoint).
func (sf *Subflow) Receive(pkt *netsim.Packet) {
	c := sf.conn
	if pkt.FlowID != c.ID {
		// A straggler from a previous life of a pooled connection: its
		// route still terminates here, but its sequence numbers belong
		// to the finished flow. Connection IDs never repeat, so the
		// guard costs non-pooled workloads nothing.
		c.net.FreePacket(pkt)
		return
	}
	now := c.now()
	a := proto.Ack{
		Sub:     sf.id,
		Seq:     pkt.Ack,
		DataAck: pkt.DataAck,
		Window:  pkt.RcvWnd,
		Sack:    -1,
		RTT:     now - proto.Time(pkt.EchoTS),
	}
	if pkt.HasSack {
		a.Sack = pkt.SackSeq
	}
	c.net.FreePacket(pkt)
	c.core.OnAck(now, a)
}
