package transport

import (
	"mptcp/internal/netsim"
	"mptcp/internal/proto"
	"mptcp/internal/sim"
)

// Receiver is the receive-side model of a connection: the protocol
// core's receiver (per-subflow cumulative acknowledgment, data-level
// reassembly, one shared receive buffer) plus the reverse routes and an
// application that reads instantly unless stalled.
//
// The core runs under proto.AckEveryPacket: each data packet is answered
// at once with a pure ACK carrying the subflow cumulative ack, the
// explicit data ack, the receive window and the echoed timestamp. Every
// golden and artefact digest pins that ACK stream, so the delayed-ACK
// policy mptcpnet runs is not an option here.
type Receiver struct {
	proto.Receiver
	net     *netsim.Net
	conn    *Conn
	rev     []*netsim.Route // per-subflow reverse routes
	stalled bool            // application stopped reading (flow-control tests)
}

// SetAppStalled freezes or resumes the receiving application's reads.
// While stalled, in-order data accumulates in the shared buffer and the
// advertised window closes; on resume all pending data drains and a
// window update is sent on every subflow, as a real TCP receiver does
// when the application's read reopens a closed window.
func (r *Receiver) SetAppStalled(stalled bool) {
	r.stalled = stalled
	if !stalled {
		r.Consume(r.Readable())
		for i := range r.rev {
			r.sendAck(i, 0, -1)
		}
	}
}

// Receive consumes a data packet (netsim.Endpoint).
func (r *Receiver) Receive(pkt *netsim.Packet) {
	if pkt.FlowID != r.conn.ID {
		// Straggler from a previous life of a pooled connection (see
		// Subflow.Receive): drop without acknowledging.
		r.net.FreePacket(pkt)
		return
	}
	sub, seq, dataSeq, sentAt, probe := pkt.SubflowID, pkt.Seq, pkt.DataSeq, pkt.SentAt, pkt.IsProbe
	r.net.FreePacket(pkt)
	if probe {
		// Window probe: acknowledge current state, change nothing.
		r.sendAck(sub, sentAt, -1)
		return
	}
	// Every packet: one ACK, at once. No packet is the stream's last: a
	// flow's end is the sender's Total, which the receiver never needs.
	v, sack, _ := r.OnData(sub, seq, dataSeq, false)
	if v == proto.Overflow {
		return
	}
	if v == proto.New && !r.stalled {
		r.Consume(r.Readable()) // the application reads instantly
	}
	r.sendAck(sub, sentAt, sack)
}

func (r *Receiver) sendAck(sub int, echo sim.Time, sack int64) {
	a := r.net.AllocPacket()
	a.Size = netsim.AckPacketSize
	a.FlowID = r.conn.ID
	a.SubflowID = sub
	a.Ack = r.SubRcvNxt(sub)
	a.DataAck = r.DataRcvNxt()
	a.RcvWnd = r.Window()
	a.EchoTS = echo
	if sack >= 0 {
		a.HasSack = true
		a.SackSeq = sack
	}
	r.net.Send(r.rev[sub], a)
}
