package proto

import (
	"math/bits"
	"testing"
)

// FuzzSeqSet holds the bit ring to a map model: fuzz bytes drive adds
// (single, far, and runs that cross word boundaries), arrivals of the
// cumulative point that drain it, membership probes and resets, from a
// fuzzed starting point, so that the ring grows, wraps around many times
// and sees duplicate adds. Its memory must stay within twice the largest
// offset asked for, and within the receiver's span bound.
func FuzzSeqSet(f *testing.F) {
	f.Add(uint32(0), []byte{0, 5, 0, 5, 2, 0, 3, 5})
	f.Add(uint32(60), []byte{1 | 63<<2, 4, 1 | 63<<2, 70, 2, 0, 3, 3, 2, 0})
	f.Add(uint32(1<<20-3), []byte{4, 0, 0, 255, 1 | 20<<2, 1, 2, 0, 3, 0, 4, 0, 2, 0})
	f.Add(uint32(7), []byte{0 | 63<<2, 255, 1 | 63<<2, 0, 2, 0, 1 | 63<<2, 64, 2, 0, 5, 9, 2, 0})
	f.Fuzz(func(t *testing.T, start uint32, ops []byte) {
		var s seqSet
		model := map[int64]bool{}
		base, maxOff := int64(start), int64(0)
		add := func(seq int64) {
			_, dup := model[seq]
			if fresh := s.add(base, seq); fresh == dup {
				t.Fatalf("add(%d) above %d reported new=%t, model has it: %t", seq, base, fresh, dup)
			}
			model[seq] = true
			maxOff = max(maxOff, seq-base)
			if s.span() > max(minSeqWords<<6, 2*maxOff) || s.span() > maxSubSpan {
				t.Fatalf("ring spans %d sequences after offsets up to %d", s.span(), maxOff)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int64(ops[i+1])
			switch op % 6 {
			case 0: // one sequence, up to 8 Ki above the point
				add(base + 1 + (int64(op>>3)<<8 | arg))
			case 1: // a run of 1-64 from up to 256 above the point
				for k := int64(0); k <= int64(op>>2)&63; k++ {
					add(base + 1 + arg + k)
				}
			case 2: // the cumulative point arrives
				next := base + 1
				for model[next] {
					delete(model, next)
					next++
				}
				if got := s.drain(base + 1); got != next {
					t.Fatalf("drain from %d stopped at %d, model at %d", base+1, got, next)
				}
				base = next
			case 3: // a probe, the point itself included
				seq := base + arg<<uint(op>>5)
				if got := s.has(base, seq); got != model[seq] {
					t.Fatalf("has(%d) above %d = %t, model %t", seq, base, got, model[seq])
				}
			case 4: // the farthest a subflow may reach
				add(base + maxSubSpan - 1 - arg)
			case 5:
				s.reset()
				clear(model)
			}
			if s.n != len(model) {
				t.Fatalf("op %d: %d members, model %d", i/2, s.n, len(model))
			}
		}
		// Every set bit is a member and every member a set bit.
		ones := 0
		for _, w := range s.words {
			ones += bits.OnesCount64(w)
		}
		for seq := range model {
			if !s.has(base, seq) {
				t.Fatalf("member %d above %d missing from the ring", seq, base)
			}
		}
		if ones != len(model) {
			t.Fatalf("%d bits set for %d members", ones, len(model))
		}
	})
}

// A subflow sequence maxSubSpan or more above the cumulative ack is
// refused like a buffer overflow, before it touches any state, and one
// just inside the bound is SACKed into a ring of at most 8 KiB.
func TestReceiverSubflowSpanBound(t *testing.T) {
	var r Receiver
	r.Reset(1, 1<<20, AckEveryPacket)
	for _, seq := range []int64{maxSubSpan, 1 << 40} {
		if v, sack, acks := r.OnData(0, seq, 0, true); v != Overflow || sack != -1 || acks != 0 {
			t.Errorf("seq %d: verdict %d sack %d acks %d, want Overflow, no SACK, no ACK", seq, v, sack, acks)
		}
	}
	if r.SubRcvNxt(0) != 0 || r.DataRcvNxt() != 0 || r.SubDelivered(0) != 0 || r.fin || r.Overflow != 2 {
		t.Fatalf("refused packets changed state: rcvNxt %d dataRcvNxt %d delivered %d fin %t overflow %d",
			r.SubRcvNxt(0), r.DataRcvNxt(), r.SubDelivered(0), r.fin, r.Overflow)
	}
	if v, sack, _ := r.OnData(0, maxSubSpan-1, 0, false); v != New || sack != maxSubSpan-1 {
		t.Errorf("seq %d: verdict %d sack %d, want New and SACKed", int64(maxSubSpan-1), v, sack)
	}
	if size := 8 * len(r.subs[0].ooo.words); size > 8<<10 {
		t.Errorf("subflow ring is %d B, want at most 8 KiB", size)
	}
	// The bound moves with the cumulative ack.
	if v, _, _ := r.OnData(0, 0, 1, false); v != New || r.SubRcvNxt(0) != 1 {
		t.Fatalf("in-order seq 0: verdict %d, rcvNxt %d", v, r.SubRcvNxt(0))
	}
	if v, _, _ := r.OnData(0, maxSubSpan, 2, false); v != New {
		t.Errorf("seq %d with the cumulative ack at 1: verdict %d, want New", int64(maxSubSpan), v)
	}
}
