package proto

// Event scripts: each test drives a Sender (or Receiver) with a handful
// of hand-stamped inputs and reads what it asked of a recording shell.
// No simulator, no sockets, no sleeps. Every rule that once held on only
// one of the two stacks (DESIGN.md §16 has the table) is pinned here,
// once, for both.

import (
	"fmt"
	"reflect"
	"testing"

	"mptcp/internal/core"
	"mptcp/internal/sched"
)

// shellCall is one side effect the core asked for.
type shellCall struct {
	op      string // emit, probe, armRTO, stopRTO, armPersist, stopPersist, completed
	sub     int
	seq     int64
	dataSeq int64
	retx    bool
	d       Time
}

func (c shellCall) String() string {
	switch c.op {
	case "emit":
		return fmt.Sprintf("emit(sub%d seq%d data%d retx=%t)", c.sub, c.seq, c.dataSeq, c.retx)
	case "armRTO":
		return fmt.Sprintf("armRTO(sub%d %v)", c.sub, c.d)
	case "armPersist":
		return fmt.Sprintf("armPersist(%v)", c.d)
	case "probe", "stopRTO":
		return fmt.Sprintf("%s(sub%d)", c.op, c.sub)
	}
	return c.op
}

// recorder is the scripted shell: it records every call and does
// nothing, except run onCompleted if set.
type recorder struct {
	calls       []shellCall
	onCompleted func()
}

func (r *recorder) Emit(sub int, seq, dataSeq int64, retx bool) {
	r.calls = append(r.calls, shellCall{op: "emit", sub: sub, seq: seq, dataSeq: dataSeq, retx: retx})
}
func (r *recorder) Probe(sub int) { r.calls = append(r.calls, shellCall{op: "probe", sub: sub}) }
func (r *recorder) ArmRTO(sub int, d Time) {
	r.calls = append(r.calls, shellCall{op: "armRTO", sub: sub, d: d})
}
func (r *recorder) StopRTO(sub int)   { r.calls = append(r.calls, shellCall{op: "stopRTO", sub: sub}) }
func (r *recorder) ArmPersist(d Time) { r.calls = append(r.calls, shellCall{op: "armPersist", d: d}) }
func (r *recorder) StopPersist()      { r.calls = append(r.calls, shellCall{op: "stopPersist"}) }
func (r *recorder) Completed() {
	r.calls = append(r.calls, shellCall{op: "completed"})
	if r.onCompleted != nil {
		r.onCompleted()
	}
}

// take returns the calls recorded since the last take.
func (r *recorder) take() []shellCall {
	c := r.calls
	r.calls = nil
	return c
}

// emits filters calls down to the emissions on sub.
func emits(calls []shellCall, sub int) (out []shellCall) {
	for _, c := range calls {
		if c.op == "emit" && c.sub == sub {
			out = append(out, c)
		}
	}
	return out
}

// lastArm returns the duration of the last ArmRTO on sub, or -1.
func lastArm(calls []shellCall, sub int) Time {
	d := Time(-1)
	for _, c := range calls {
		if c.op == "armRTO" && c.sub == sub {
			d = c.d
		}
	}
	return d
}

func newScript(cfg SenderConfig) (*Sender, *recorder) {
	if cfg.Sched == nil {
		cfg.Sched = sched.FirstFit{}
	}
	if cfg.Window == 0 {
		cfg.Window = 1 << 20
	}
	s, r := &Sender{}, &recorder{}
	s.Reset(r, cfg)
	return s, r
}

// ack builds a cumulative ACK on sub with the data ack tracking it (the
// single-subflow case) and an open window.
func ack(sub int, seq int64, rtt Time) Ack {
	return Ack{Sub: sub, Seq: seq, DataAck: seq, Window: 1 << 20, Sack: -1, RTT: rtt}
}

// The transmission contract shells rely on (DESIGN.md §16): the idle
// retransmission timer is armed before the packet is emitted, and is not
// re-armed for later packets of the same flight.
func TestTransmitArmsIdleTimerThenEmits(t *testing.T) {
	s, r := newScript(SenderConfig{Subflows: 1, Total: Infinite})
	s.Pump(0)
	want := []shellCall{
		{op: "armRTO", sub: 0, d: initialRTO},
		{op: "emit", sub: 0, seq: 0, dataSeq: 0},
		{op: "emit", sub: 0, seq: 1, dataSeq: 1},
	}
	if got := r.take(); !reflect.DeepEqual(got, want) {
		t.Errorf("first pump asked for %v, want %v", got, want)
	}
}

// The RTO is clamped to 60 s however wild the samples, the backoff
// exponent is capped, and the backed-off timer never exceeds the clamp
// either.
func TestRTOClampedAndBackoffCapped(t *testing.T) {
	s, r := newScript(SenderConfig{Subflows: 1, Total: Infinite})
	s.Pump(0)
	s.OnAck(10*3600*Second, ack(0, 1, 10*3600*Second)) // a 10-hour RTT sample
	if d := lastArm(r.take(), 0); d != MaxRTO {
		t.Fatalf("timer armed for %v after a 10 h sample, want the %v clamp", d, MaxRTO)
	}
	now := Time(0)
	for i := 0; i < 3*maxBackoff; i++ {
		now += MaxRTO
		s.OnRTO(now, 0)
		if d := lastArm(r.take(), 0); d <= 0 || d > MaxRTO {
			t.Fatalf("timeout %d: timer armed for %v, want within (0, %v]", i, d, MaxRTO)
		}
	}
	if b := s.Backoff(0); b != maxBackoff {
		t.Errorf("backoff = %d after %d consecutive timeouts, want the cap %d", b, 3*maxBackoff, maxBackoff)
	}
	// A small RTO backs off exponentially up to the same clamp.
	s, r = newScript(SenderConfig{Subflows: 1, Total: Infinite})
	s.Pump(0)
	s.OnAck(Millisecond, ack(0, 1, Millisecond)) // rto = MinRTO
	r.take()
	for i, want := range []Time{400 * Millisecond, 800 * Millisecond, 1600 * Millisecond} {
		s.OnRTO(Time(i+1)*Second, 0)
		if d := lastArm(r.take(), 0); d != want {
			t.Errorf("timeout %d: timer armed for %v, want %v", i, d, want)
		}
	}
}

// An ACK carries the timestamp of the very transmission that elicited
// it, so its RTT sample is unambiguous even when that transmission was a
// retransmission. This replaces mptcpnet's TestRetxAckSuppressesRTTSample:
// both wires echo a per-transmission stamp, which makes the Karn
// retransmission-mark check it pinned redundant — and suppressing the
// sample would starve the estimator exactly when the path changed.
func TestRTTSampleTakenFromRetransmissionsEcho(t *testing.T) {
	s, r := newScript(SenderConfig{Subflows: 1, Total: Infinite})
	s.Pump(0)
	s.OnRTO(Second, 0) // both packets presumed lost; seq 0 goes again
	if got := emits(r.take(), 0); len(got) != 3 || !got[2].retx || got[2].seq != 0 {
		t.Fatalf("emissions = %v, want two originals then a retransmission of seq 0", got)
	}
	// The receiver echoes the retransmission's stamp: 30 ms ago.
	s.OnAck(Second+30*Millisecond, ack(0, 1, 30*Millisecond))
	if got := s.SRTT(0); got != 30*Millisecond {
		t.Errorf("srtt = %v after the retransmission's ACK, want its 30 ms sample", got)
	}
	if b := s.Backoff(0); b != 0 {
		t.Errorf("backoff = %d after cumulative-ACK progress, want 0", b)
	}
	// An ACK with no echo (a window update) feeds nothing.
	s.OnAck(Second+40*Millisecond, ack(0, 2, 0))
	if got := s.SRTT(0); got != 30*Millisecond {
		t.Errorf("srtt = %v after an ACK without a timestamp, want it unchanged", got)
	}
}

// After a timeout the subflow's outstanding data is reinjected on the
// other subflow in ascending data-sequence order, window-paced, ahead of
// new data.
func TestReinjectionLeavesInAscendingOrder(t *testing.T) {
	s, r := newScript(SenderConfig{Subflows: 2, Total: 12, InitialCwnd: 8})
	s.Pump(0) // firstfit: data 0-7 on subflow 0, then 8-11 on subflow 1
	if got := emits(r.take(), 1); len(got) != 4 || got[0].dataSeq != 8 {
		t.Fatalf("subflow 1 carried %v, want data 8-11", got)
	}
	s.OnRTO(Second, 0)
	calls := r.take()
	if got := emits(calls, 0); len(got) != 1 || !got[0].retx || got[0].seq != 0 {
		t.Errorf("timeout emitted %v on subflow 0, want one window-paced repair of seq 0", got)
	}
	if got := emits(calls, 1); len(got) != 0 {
		t.Errorf("OnRTO itself pumped the other subflow: %v", got)
	}
	s.Pump(Second)
	got := emits(r.take(), 1)
	if len(got) != 4 { // 8 - 4 outstanding
		t.Fatalf("subflow 1 carried %d reinjections, want its 4 free window slots", len(got))
	}
	for i, c := range got {
		if c.dataSeq != int64(i) || c.retx {
			t.Errorf("reinjection %d = %v, want data %d under a fresh subflow sequence", i, c, i)
		}
	}
	if s.Reinjects != 8 {
		t.Errorf("Reinjects = %d, want 8", s.Reinjects)
	}
}

// nopShell performs nothing, so that what an allocation pin counts is the
// core's own.
type nopShell struct{}

func (nopShell) Emit(int, int64, int64, bool) {}
func (nopShell) Probe(int)                    {}
func (nopShell) ArmRTO(int, Time)             {}
func (nopShell) StopRTO(int)                  {}
func (nopShell) ArmPersist(Time)              {}
func (nopShell) StopPersist()                 {}
func (nopShell) Completed()                   {}

// Repeated timeouts reinject the same eight segments over and over: the
// queue rewinds once the pump has drained it, so after the first cycle no
// timeout or reinjection allocates.
func TestReinjectionCyclesAllocationFree(t *testing.T) {
	s := &Sender{}
	// A 16-packet window keeps each life of subflow 1's flight at 8 packets
	// however far its slow start runs.
	s.Reset(nopShell{}, SenderConfig{Subflows: 2, Total: Infinite, InitialCwnd: 8, Window: 16, Sched: sched.FirstFit{}})
	s.Pump(0) // data 0-7 on subflow 0, 8-15 on subflow 1
	now := Time(0)
	cycle := func() {
		now += Second
		s.OnRTO(now, 0) // subflow 0's eight segments go to the queue
		// Subflow 1's flight is acknowledged, but not the data: its window
		// opens and the pump reinjects the queue there.
		s.OnAck(now, Ack{Sub: 1, Seq: s.subs[1].sndNxt, DataAck: 0, Window: 16, Sack: -1, RTT: 10 * Millisecond})
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("%.1f allocations per timeout-and-reinjection cycle, want 0", n)
	}
	// AllocsPerRun runs one cycle more than it counts.
	if s.Reinjects != 8*101 || s.subs[1].sndNxt != 8+8*101 {
		t.Errorf("Reinjects = %d, subflow 1 sent %d; want 808 reinjected and carried by subflow 1",
			s.Reinjects, s.subs[1].sndNxt-8)
	}
}

// Acknowledgments beyond what was sent are clamped: they can neither
// invert sndUna <= sndNxt nor dataUna <= dataNxt.
func TestAcksBeyondSentAreClamped(t *testing.T) {
	s, r := newScript(SenderConfig{Subflows: 1, Total: Infinite})
	s.Pump(0)
	s.OnAck(Millisecond, ack(0, 1000, Millisecond))
	if out := s.subs[0].outstanding(); out < 0 {
		t.Errorf("a bogus subflow ack left %d packets outstanding", out)
	}
	if s.DataUna() > s.DataNxt() {
		t.Errorf("a bogus data ack moved dataUna (%d) past dataNxt (%d)", s.DataUna(), s.DataNxt())
	}
	// The two real packets count as acknowledged, no more: slow start
	// grew the window by two, and the pump refilled exactly that window.
	if cw := s.Cwnd(0); cw != 4 {
		t.Errorf("cwnd = %v after acknowledging 2 packets, want 4", cw)
	}
	if got := emits(r.take(), 0); len(got) != 2+4 {
		t.Errorf("%d emissions, want the initial 2 and a refilled window of 4", len(got))
	}
}

// Completion may re-enter Reset: a pooled connection is recycled from
// inside OnComplete, which runs inside the old life's final OnAck. The
// rest of that ACK — its subflow cumulative ack, its window credit —
// belongs to the finished life.
func TestResetInsideCompletedDropsRestOfAck(t *testing.T) {
	cfg := SenderConfig{Subflows: 1, Total: 6, Sched: sched.FirstFit{}, Window: 1 << 20}
	s, r := &Sender{}, &recorder{}
	r.onCompleted = func() {
		r.onCompleted = nil
		s.Reset(r, cfg)
		s.Finish()
		s.Pump(50 * Millisecond) // the new life starts inside the old ACK
	}
	s.Reset(r, cfg)
	s.Finish()
	s.Pump(0)
	for seq := int64(1); seq <= 5; seq++ {
		s.OnAck(Time(seq)*10*Millisecond, ack(0, seq, 10*Millisecond))
	}
	r.take()
	s.OnAck(60*Millisecond, ack(0, 6, 10*Millisecond)) // final ACK of the old life
	if s.Done() {
		t.Fatal("the recycled sender is done: the new life never started")
	}
	if out := s.subs[0].outstanding(); out != 2 {
		t.Errorf("new life has %d packets outstanding, want its initial window of 2 (old ack applied?)", out)
	}
	if cw := s.Cwnd(0); cw != 2 {
		t.Errorf("new life's cwnd = %v, want the initial 2 (phantom slow-start credit)", cw)
	}
	if got := emits(r.take(), 0); len(got) != 2 || got[0].seq != 0 || got[0].dataSeq != 0 {
		t.Errorf("after the final ACK the shell saw %v, want the new life's first two packets only", got)
	}
}

// The algorithm sees every subflow's window: COUPLED's decrease on one
// subflow depends on the other's.
func TestLossFeedsWholeStateVectorToAlgorithm(t *testing.T) {
	s, _ := newScript(SenderConfig{Subflows: 2, Total: Infinite, Alg: core.Coupled{}, InitialCwnd: 10})
	s.Pump(0) // 10 packets on each subflow
	w0, w1 := s.Cwnd(0), s.Cwnd(1)
	for _, sack := range []int64{1, 2, 3} { // seq 0 lost on subflow 0
		s.OnAck(10*Millisecond, Ack{Sub: 0, Seq: 0, DataAck: 0, Window: 1 << 20, Sack: sack, RTT: 10 * Millisecond})
	}
	want := max(w0-(w0+w1)/2, core.MinCwnd)
	if got := s.Cwnd(0); got != want {
		t.Errorf("coupled decrease left cwnd %v, want w0 - wtotal/2 = %v (w0=%v w1=%v)", got, want, w0, w1)
	}
	if s.Stats(0).FastRetx != 1 {
		t.Errorf("FastRetx = %d after three new SACKs, want 1", s.Stats(0).FastRetx)
	}
}

// A sender blocked by a closed window with nothing in flight probes
// every subflow each persist interval until a window update arrives.
func TestPersistProbesWhileWindowClosed(t *testing.T) {
	s, r := newScript(SenderConfig{Subflows: 2, Total: Infinite, Window: 2})
	s.Pump(0) // two packets fill the window
	s.OnAck(Millisecond, Ack{Sub: 0, Seq: 1, DataAck: 1, Window: 1, Sack: -1})
	s.OnAck(2*Millisecond, Ack{Sub: 0, Seq: 2, DataAck: 2, Window: 0, Sack: -1}) // idle and blocked
	if calls := r.take(); calls[len(calls)-1] != (shellCall{op: "armPersist", d: persistInterval}) {
		t.Fatalf("blocked and idle, the core asked for %v, want it to end arming the persist timer", calls)
	}
	s.OnPersist(202 * Millisecond)
	want := []shellCall{{op: "probe", sub: 0}, {op: "probe", sub: 1}, {op: "armPersist", d: persistInterval}}
	if got := r.take(); !reflect.DeepEqual(got, want) {
		t.Errorf("persist fire asked for %v, want %v", got, want)
	}
	s.OnAck(203*Millisecond, Ack{Sub: 1, Seq: 0, DataAck: 2, Window: 4, Sack: -1}) // the probe's answer
	calls := r.take()
	if calls[0].op != "stopPersist" || len(emits(calls, 0))+len(emits(calls, 1)) == 0 {
		t.Errorf("window update asked for %v, want the persist timer stopped and data flowing", calls)
	}
}

// The receiver's window is relative to the data-level cumulative ack and
// counts everything the application has not read, in order or not; data
// beyond it is refused without touching subflow state, and held data is
// a duplicate wherever it arrives.
func TestReceiverWindowCountsUnreadData(t *testing.T) {
	var r Receiver
	r.Reset(2, 4, AckEveryPacket)
	step := func(sub int, seq, dataSeq int64, wantV Verdict, wantSack, wantWnd int64) {
		t.Helper()
		v, sack, _ := r.OnData(sub, seq, dataSeq, false)
		if v != wantV || sack != wantSack || r.Window() != wantWnd {
			t.Fatalf("OnData(sub%d seq%d data%d) = verdict %d sack %d window %d, want %d %d %d",
				sub, seq, dataSeq, v, sack, r.Window(), wantV, wantSack, wantWnd)
		}
	}
	step(0, 0, 0, New, -1, 3)       // in order, unread
	step(1, 0, 2, New, -1, 3)       // out of order at the data level: same edge
	step(1, 0, 2, Duplicate, -1, 3) // the same packet again
	step(0, 2, 3, New, 2, 3)        // subflow-level hole: SACKed, once
	step(0, 2, 3, Duplicate, -1, 3)
	step(0, 1, 1, New, -1, 0) // fills both holes: 4 unread packets, window shut
	if r.SubRcvNxt(0) != 3 || r.DataRcvNxt() != 4 {
		t.Fatalf("cumulative points = sub0 %d data %d, want 3 and 4", r.SubRcvNxt(0), r.DataRcvNxt())
	}
	step(1, 1, 4, Overflow, -1, 0)
	if r.SubRcvNxt(1) != 1 {
		t.Errorf("an overflowing packet advanced subflow 1's cumulative ack to %d", r.SubRcvNxt(1))
	}
	if reopened := r.Consume(1); !reopened || r.Window() != 1 {
		t.Errorf("reading one packet: reopened=%t window=%d, want true and 1", reopened, r.Window())
	}
	if reopened := r.Consume(1); reopened {
		t.Error("a read that widens an open window asked for a window update")
	}
	step(1, 1, 4, New, -1, 1) // now it fits
	if r.Overflow != 1 || r.DupData != 2 || r.SubDelivered(0) != 3 || r.SubDelivered(1) != 2 {
		t.Errorf("counters: overflow %d dup %d delivered %d/%d, want 1 2 3/2",
			r.Overflow, r.DupData, r.SubDelivered(0), r.SubDelivered(1))
	}
}

// --- Delayed acknowledgments (AckDelayed, what mptcpnet runs) ---

// acksFor feeds one data packet and returns how many ACKs go now.
func acksFor(t *testing.T, r *Receiver, sub int, seq, dataSeq int64) int {
	t.Helper()
	v, _, acks := r.OnData(sub, seq, dataSeq, false)
	if v == Overflow {
		t.Fatalf("OnData(sub%d seq%d data%d) overflowed the buffer", sub, seq, dataSeq)
	}
	return acks
}

func newDelayed(nsub int, bufCap int64) *Receiver {
	r := &Receiver{}
	r.Reset(nsub, bufCap, AckDelayed)
	return r
}

// The second quiet segment of a subflow releases the ACK for both, and
// the count starts over.
func TestDelayedAckSecondSegmentAcknowledges(t *testing.T) {
	r := newDelayed(1, 64)
	for seq, want := range []int{0, 1, 0, 1, 0} {
		if got := acksFor(t, r, 0, int64(seq), int64(seq)); got != want {
			t.Errorf("segment %d: %d ACKs now, want %d", seq, got, want)
		}
	}
}

// A lone segment is owed until the shell's delay expires, exactly once,
// and what one subflow owes does not make another subflow's first segment
// a second one.
func TestDelayedAckLoneSegmentOwesUntilDelay(t *testing.T) {
	r := newDelayed(2, 64)
	if got := acksFor(t, r, 0, 0, 0); got != 0 {
		t.Fatalf("lone segment: %d ACKs now, want it owed", got)
	}
	if got := acksFor(t, r, 1, 0, 1); got != 0 {
		t.Errorf("first segment of subflow 1: %d ACKs now, want it owed too", got)
	}
	if !r.OnAckDelay(0) {
		t.Error("delay expired on subflow 0: nothing owed, want the lone segment's ACK")
	}
	if r.OnAckDelay(0) {
		t.Error("second expiry on subflow 0 still owes an ACK")
	}
	if got := acksFor(t, r, 0, 1, 2); got != 0 {
		t.Errorf("next segment after the timer-fired ACK: %d ACKs now, want a fresh owed one", got)
	}
	if !r.OnAckDelay(1) {
		t.Error("subflow 1's owed ACK was settled by subflow 0's expiry")
	}
}

// Everything the sender acts on goes at once: loss signals, repairs, a
// jump of the data-level point, probes, the end of the stream and a
// window that is closing.
func TestDelayedAckSignalsAcknowledgeAtOnce(t *testing.T) {
	type pkt struct {
		sub          int
		seq, dataSeq int64
	}
	cases := []struct {
		name    string
		nsub    int
		bufCap  int64
		prelude func(r *Receiver) // brings the receiver to the state under test
		arrival pkt
		want    int
	}{
		{name: "out of order", nsub: 1, bufCap: 64, arrival: pkt{0, 1, 1}, want: 1},
		{name: "out of order with one owed: the owed ACK first, then the SACK", nsub: 1, bufCap: 64,
			prelude: func(r *Receiver) { r.OnData(0, 0, 0, false) }, arrival: pkt{0, 2, 2}, want: 2},
		{name: "duplicate", nsub: 1, bufCap: 64,
			prelude: func(r *Receiver) { r.OnData(0, 0, 0, false); r.OnAckDelay(0) }, arrival: pkt{0, 0, 0}, want: 1},
		{name: "fills the subflow's gap", nsub: 1, bufCap: 64,
			prelude: func(r *Receiver) { r.OnData(0, 1, 1, false) }, arrival: pkt{0, 0, 0}, want: 1},
		{name: "in order below a hole that stays", nsub: 1, bufCap: 64,
			prelude: func(r *Receiver) { r.OnData(0, 2, 2, false) }, arrival: pkt{0, 0, 0}, want: 1},
		{name: "fills the data-level gap", nsub: 2, bufCap: 64,
			prelude: func(r *Receiver) { r.OnData(1, 0, 1, false); r.OnAckDelay(1) }, arrival: pkt{0, 0, 0}, want: 1},
		{name: "after the stream's last segment, which the other path delivered early", nsub: 2, bufCap: 64,
			prelude: func(r *Receiver) { r.OnData(1, 0, 5, true) }, arrival: pkt{0, 0, 0}, want: 1},
		{name: "lone, but the window is down to a quarter of the buffer", nsub: 1, bufCap: 8,
			prelude: func(r *Receiver) {
				for seq := int64(0); seq < 5; seq++ { // unread: the fifth still leaves 3 of 8 and is owed
					r.OnData(0, seq, seq, false)
				}
				r.OnAckDelay(0)
			},
			arrival: pkt{0, 5, 5}, want: 1},
	}
	for _, c := range cases {
		r := newDelayed(c.nsub, c.bufCap)
		if c.prelude != nil {
			c.prelude(r)
		}
		if got := acksFor(t, r, c.arrival.sub, c.arrival.seq, c.arrival.dataSeq); got != c.want {
			t.Errorf("%s: %d ACKs now, want %d", c.name, got, c.want)
		}
		if r.OnAckDelay(c.arrival.sub) {
			t.Errorf("%s: an ACK is still owed after the immediate one", c.name)
		}
	}
	// A segment in order on its subflow whose data is ahead of the
	// data-level point is quiet: on paths of unequal delay that is every
	// segment of the faster one. Unless it is the stream's last: no later
	// segment will come to release its ACK.
	r := newDelayed(2, 64)
	if got := acksFor(t, r, 1, 0, 5); got != 0 {
		t.Errorf("in order on the subflow, ahead at the data level: %d ACKs now, want it owed", got)
	}
	r = newDelayed(2, 64)
	if _, _, got := r.OnData(1, 0, 5, true); got != 1 || r.OnAckDelay(1) {
		t.Errorf("the same segment, marked last: %d ACKs now, want 1 and nothing owed", got)
	}
}

// A probe's answer and a window update are cumulative ACKs: they settle
// what was owed, so no redundant delayed ACK follows them.
func TestDelayedAckSettledByProbeAndWindowUpdate(t *testing.T) {
	r := newDelayed(2, 4)
	if got := acksFor(t, r, 0, 0, 0); got != 0 {
		t.Fatalf("lone segment: %d ACKs now, want it owed", got)
	}
	r.OnProbe(0)
	if r.OnAckDelay(0) {
		t.Error("an ACK is still owed after the probe was answered")
	}
	if got := acksFor(t, r, 0, 1, 1); got != 0 { // window 2 of 4: still comfortable
		t.Fatalf("lone segment: %d ACKs now, want it owed", got)
	}
	for seq := int64(0); seq < 2; seq++ { // subflow 1 shuts the window
		if got := acksFor(t, r, 1, seq, 2+seq); got != 1 {
			t.Errorf("segment %d into a closing window: %d ACKs now, want 1", seq, got)
		}
	}
	if reopened := r.Consume(4); !reopened {
		t.Fatal("reading a full buffer did not reopen the window")
	}
	if r.OnAckDelay(0) {
		t.Error("an ACK is still owed on subflow 0 after the window update went out on every subflow")
	}
}

// The policy transport runs: every packet is answered by exactly one
// ACK, whatever it is.
func TestDelayedAckEveryPacketPolicyNeverOwes(t *testing.T) {
	var r Receiver
	r.Reset(2, 64, AckEveryPacket)
	for i, p := range [][3]int64{{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {1, 0, 4}, {0, 2, 2}, {0, 2, 2}, {1, 1, 5}, {1, 3, 7}} {
		if got := acksFor(t, &r, int(p[0]), p[1], p[2]); got != 1 {
			t.Errorf("packet %d (sub%d seq%d): %d ACKs now, want 1", i, p[0], p[1], got)
		}
		if r.OnAckDelay(int(p[0])) {
			t.Errorf("packet %d: the every-packet policy owes an ACK", i)
		}
	}
}

// The ACK that covers a held in-order segment must not also be the one
// that carries the first SACK: the sender counts a SACK as a duplicate
// only when the cumulative point stays, so fast retransmit would fire one
// arrival late. One held segment, a loss, three out-of-order arrivals.
func TestDelayedAckHeldSegmentDoesNotDelayFastRetransmit(t *testing.T) {
	s, _ := newScript(SenderConfig{Subflows: 1, Total: Infinite, InitialCwnd: 10})
	s.Pump(0) // seq 0-9 in flight; seq 1 is lost
	r := newDelayed(1, 64)
	feed := func(seq int64) {
		_, sack, acks := r.OnData(0, seq, seq, false)
		a := Ack{Sub: 0, Seq: r.SubRcvNxt(0), DataAck: r.DataRcvNxt(), Window: r.Window(), Sack: -1, RTT: 10 * Millisecond}
		if acks == 2 {
			s.OnAck(10*Millisecond, a)
		}
		if acks > 0 {
			a.Sack = sack
			s.OnAck(10*Millisecond, a)
		}
	}
	feed(0) // held
	if s.subs[0].outstanding() != 10 {
		t.Fatalf("%d packets outstanding with seq 0's ACK held, want all 10", s.subs[0].outstanding())
	}
	for _, seq := range []int64{2, 3} {
		feed(seq)
		if n := s.Stats(0).FastRetx; n != 0 {
			t.Fatalf("FastRetx = %d after the SACK of seq %d, want 0 before the third", n, seq)
		}
	}
	feed(4)
	if n := s.Stats(0).FastRetx; n != 1 {
		t.Errorf("FastRetx = %d after three out-of-order arrivals behind a held segment, want 1", n)
	}
}
