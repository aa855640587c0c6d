package proto

// A scripted model network under a Sender/Receiver pair: fixed one-way
// delay per path, a loss mask over each path's emissions, an application
// that reads at once, the shell's timers as queue entries, and the stream's
// final packet marked as its last, the way mptcpnet ends a stream. No
// simulator, no sockets, no randomness — enough to run whole transfers
// through the core and compare two of them.

import (
	"sort"
	"testing"

	"mptcp/internal/core"
	"mptcp/internal/sched"
)

type modelEvent struct {
	at   Time
	kind string // data, ack, rto, persist, ackDelay
	sub  int
	gen  int // rto, persist: the arming this expiry belongs to
	seq  int64
	data int64
	echo Time // data: when it was emitted; ack: the stamp it echoes
	ack  Ack
}

type modelNet struct {
	now   Time
	queue []modelEvent // sorted by time; insertion order breaks ties

	snd  Sender
	rcv  Receiver
	last int64 // data sequence of the stream's final packet

	delay    []Time           // one-way, per path, both directions
	lose     []map[int64]bool // per path: emission indices that vanish
	emitted  []int64
	ackDelay Time

	rtoGen     []int
	persistGen int
	// Receiver shell state per subflow, as mptcpnet keeps it.
	delayArmed []bool
	heldEcho   []Time
	heldAt     []Time

	arrivals []modelEvent        // data events in the order the receiver saw them
	acks     int                 // ACKs delivered to the sender
	doneAt   Time                // when Completed was called, or 0
	cwndAt   []map[int64]float64 // per subflow: cwnd once sndUna reached the key
}

func newModelNet(policy AckPolicy, total int64, delay []Time, lose []map[int64]bool) *modelNet {
	n := len(delay)
	m := &modelNet{
		delay: delay, lose: lose, ackDelay: Millisecond, last: total - 1,
		emitted: make([]int64, n), rtoGen: make([]int, n),
		delayArmed: make([]bool, n), heldEcho: make([]Time, n), heldAt: make([]Time, n),
		cwndAt: make([]map[int64]float64, n),
	}
	for i := range m.cwndAt {
		m.cwndAt[i] = map[int64]float64{}
	}
	m.rcv.Reset(n, 1<<20, policy)
	// Uncoupled windows: each subflow's cwnd is then a function of its own
	// acknowledged-segment count alone, which is what the pair is compared
	// on; how the scheduler splits the stream may differ between the runs.
	m.snd.Reset(m, SenderConfig{Subflows: n, Alg: core.Regular{}, Sched: sched.FirstFit{}, Total: total, Window: 1 << 20})
	m.snd.Finish()
	return m
}

func (m *modelNet) push(e modelEvent) {
	i := sort.Search(len(m.queue), func(i int) bool { return m.queue[i].at > e.at })
	m.queue = append(m.queue, modelEvent{})
	copy(m.queue[i+1:], m.queue[i:])
	m.queue[i] = e
}

// --- Shell ---

func (m *modelNet) Emit(sub int, seq, dataSeq int64, _ bool) {
	idx := m.emitted[sub]
	m.emitted[sub]++
	if !m.lose[sub][idx] {
		m.push(modelEvent{at: m.now + m.delay[sub], kind: "data", sub: sub, seq: seq, data: dataSeq, echo: m.now})
	}
}
func (m *modelNet) Probe(int) {}
func (m *modelNet) ArmRTO(sub int, d Time) {
	m.rtoGen[sub]++
	m.push(modelEvent{at: m.now + d, kind: "rto", sub: sub, gen: m.rtoGen[sub]})
}
func (m *modelNet) StopRTO(sub int) { m.rtoGen[sub]++ }
func (m *modelNet) ArmPersist(d Time) {
	m.persistGen++
	m.push(modelEvent{at: m.now + d, kind: "persist", gen: m.persistGen})
}
func (m *modelNet) StopPersist() { m.persistGen++ }
func (m *modelNet) Completed()   { m.doneAt = m.now }

// sendAck puts the receiver's current state on sub's reverse path.
func (m *modelNet) sendAck(sub int, echo Time, sack int64) {
	a := Ack{Sub: sub, Seq: m.rcv.SubRcvNxt(sub), DataAck: m.rcv.DataRcvNxt(), Window: m.rcv.Window(), Sack: sack}
	m.push(modelEvent{at: m.now + m.delay[sub], kind: "ack", ack: a, echo: echo})
}

// run plays the transfer to completion (or until nothing is left to
// happen) and returns the model.
func (m *modelNet) run() *modelNet {
	m.snd.Pump(0)
	for len(m.queue) > 0 && m.doneAt == 0 {
		e := m.queue[0]
		m.queue = m.queue[1:]
		m.now = e.at
		switch e.kind {
		case "data":
			m.arrivals = append(m.arrivals, e)
			v, sack, acks := m.rcv.OnData(e.sub, e.seq, e.data, e.data == m.last)
			if v == New {
				m.rcv.Consume(m.rcv.Readable())
			}
			switch {
			case acks == 0 && v != Overflow: // owed: what mptcpnet's shell does
				m.heldEcho[e.sub], m.heldAt[e.sub] = e.echo, m.now
				if !m.delayArmed[e.sub] {
					m.delayArmed[e.sub] = true
					m.push(modelEvent{at: m.now + m.ackDelay, kind: "ackDelay", sub: e.sub})
				}
			case acks == 2:
				m.sendAck(e.sub, e.echo, -1)
				fallthrough
			case acks == 1:
				m.sendAck(e.sub, e.echo, sack)
			}
		case "ackDelay":
			m.delayArmed[e.sub] = false
			if m.rcv.OnAckDelay(e.sub) {
				// The held stamp, advanced by the time it was held.
				m.sendAck(e.sub, m.heldEcho[e.sub]+m.now-m.heldAt[e.sub], -1)
			}
		case "ack":
			e.ack.RTT = m.now - e.echo
			m.acks++
			m.snd.OnAck(m.now, e.ack)
			if una := m.snd.subs[e.ack.Sub].sndUna; !m.snd.Done() {
				m.cwndAt[e.ack.Sub][una] = m.snd.Cwnd(e.ack.Sub)
			}
		case "rto":
			if e.gen == m.rtoGen[e.sub] {
				m.snd.OnRTO(m.now, e.sub)
				m.snd.Pump(m.now)
			}
		case "persist":
			if e.gen == m.persistGen {
				m.snd.OnPersist(m.now)
			}
		}
	}
	return m
}

// The model_result guard DESIGN.md §15 asked for before ACK coalescing:
// the same transfer over the same two paths (10 ms and 40 ms round trips,
// one loss on each), once with per-packet and once with delayed ACKs. The
// sender counts acknowledged segments, not ACK arrivals, so nothing but
// the ACK count may move.
func TestDelayedAckPairedRunMatchesPerPacket(t *testing.T) {
	const total = 2000
	delay := []Time{5 * Millisecond, 20 * Millisecond}
	// One emission lost per path, in slow start: in the doubling flight
	// that ends at sequence recovered[i], where fast recovery ends and
	// congestion avoidance begins.
	lost, recovered := []int64{40, 25}, []int64{62, 30}
	run := func(p AckPolicy) *modelNet {
		return newModelNet(p, total, delay, []map[int64]bool{{lost[0]: true}, {lost[1]: true}}).run()
	}
	every, delayed := run(AckEveryPacket), run(AckDelayed)

	for _, m := range []*modelNet{every, delayed} {
		if m.doneAt == 0 || m.rcv.DataRcvNxt() != total || m.snd.DataUna() != total {
			t.Fatalf("transfer incomplete: done at %v, %d of %d delivered, %d acknowledged",
				m.doneAt, m.rcv.DataRcvNxt(), total, m.snd.DataUna())
		}
	}
	if ratio := float64(delayed.acks) / float64(every.acks); ratio > 0.6 {
		t.Errorf("delayed run saw %d ACKs against %d per-packet (%.2f), want at most 0.6", delayed.acks, every.acks, ratio)
	}
	for sub := range delay {
		a, b := every.snd.Stats(sub), delayed.snd.Stats(sub)
		if a.FastRetx != 1 || b.FastRetx != 1 || a.RTOs+b.RTOs != 0 || a.PktsRetx != b.PktsRetx {
			t.Errorf("subflow %d recovery differs: per-packet %+v, delayed %+v (want one fast retransmit, no RTO)", sub, *a, *b)
		}
		// cwnd after N acknowledged segments, wherever both runs saw an
		// ACK land on N: below the loss that is slow start, above it
		// congestion avoidance.
		ss, ca := 0, 0
		for una, w := range every.cwndAt[sub] {
			w2, ok := delayed.cwndAt[sub][una]
			if !ok {
				continue
			}
			if w != w2 {
				t.Errorf("subflow %d: cwnd after %d acknowledged segments = %v per-packet, %v delayed", sub, una, w, w2)
			}
			if una < lost[sub] {
				ss++
			} else if una > recovered[sub] {
				ca++
			}
		}
		if ss < 5 || ca < 10 {
			t.Errorf("subflow %d: only %d slow-start and %d congestion-avoidance points compared", sub, ss, ca)
		}
		// The timer-fired ACKs echo a stamp advanced by the hold time, so
		// the estimator never sees the delay.
		rtt := 2 * delay[sub]
		for _, m := range []*modelNet{every, delayed} {
			if got := m.snd.SRTT(sub); got < rtt*95/100 || got > rtt*105/100 {
				t.Errorf("subflow %d: srtt = %v, want within 5%% of the path's %v", sub, got, rtt)
			}
		}
	}
	if d := delayed.doneAt - every.doneAt; d < -delayed.ackDelay || d > delayed.ackDelay {
		t.Errorf("delayed run completed at %v, per-packet at %v: more than one ACK delay (%v) apart",
			delayed.doneAt, every.doneAt, delayed.ackDelay)
	}
}

// The receiver's steady state hashes and allocates nothing: the arrivals
// of a two-subflow transfer with losses on both paths (holes in each
// subflow) and unequal delays (data-level reordering all along), replayed
// on a receiver Reset for a new life, leave it in the same state and cost
// no allocation per segment once its out-of-order rings have grown.
func TestReceiverReorderingScriptAllocationFree(t *testing.T) {
	const total = 2000
	m := newModelNet(AckEveryPacket, total, []Time{5 * Millisecond, 20 * Millisecond},
		[]map[int64]bool{{40: true, 300: true}, {25: true}}).run()
	if m.rcv.DataRcvNxt() != total {
		t.Fatalf("model transfer delivered %d of %d", m.rcv.DataRcvNxt(), total)
	}
	var r Receiver
	sacks, ahead := 0, 0
	replay := func() {
		r.Reset(2, 1<<20, AckEveryPacket)
		sacks, ahead = 0, 0
		for _, e := range m.arrivals {
			if e.data > r.DataRcvNxt() {
				ahead++
			}
			v, sack, _ := r.OnData(e.sub, e.seq, e.data, e.data == m.last)
			if sack >= 0 {
				sacks++
			}
			if v == New {
				r.Consume(r.Readable())
			}
		}
	}
	replay()
	if r.DataRcvNxt() != total || r.SubRcvNxt(0) != m.rcv.SubRcvNxt(0) || r.SubRcvNxt(1) != m.rcv.SubRcvNxt(1) {
		t.Fatalf("replay ended at data %d, subflows %d/%d; the model at %d, %d/%d", r.DataRcvNxt(),
			r.SubRcvNxt(0), r.SubRcvNxt(1), m.rcv.DataRcvNxt(), m.rcv.SubRcvNxt(0), m.rcv.SubRcvNxt(1))
	}
	if sacks < 3 || ahead < total/4 {
		t.Fatalf("the script reorders too little: %d SACKed arrivals, %d ahead of the data-level point", sacks, ahead)
	}
	if n := testing.AllocsPerRun(20, replay) / float64(len(m.arrivals)); n != 0 {
		t.Errorf("%.4f allocations per segment on a Reset receiver, want 0", n)
	}
}
