package proto

import "math/bits"

// seqSet is a set of sequence numbers above a cumulative point, kept as a
// bit ring: sequence s is bit s mod 64·len(words). The caller owns the
// cumulative point (base) and every member lies in (base, base + span), so
// a bit names exactly one sequence, nothing is hashed, and bits of
// non-members are always zero. The ring grows by doubling when an add
// reaches past it and keeps its size across resets.
type seqSet struct {
	words []uint64 // power-of-two length, nil before the first add
	n     int      // members
}

// minSeqWords is the ring's first size: 256 sequence numbers.
const minSeqWords = 4

// span is how far above the cumulative point the ring reaches.
func (s *seqSet) span() int64 { return int64(len(s.words)) << 6 }

func (s *seqSet) word(seq int64) *uint64 { return &s.words[(seq>>6)&int64(len(s.words)-1)] }

// has reports whether seq, at or above base, is a member.
func (s *seqSet) has(base, seq int64) bool {
	return seq-base < s.span() && *s.word(seq)&(1<<(seq&63)) != 0
}

// add inserts seq, above base, and reports whether it was new.
func (s *seqSet) add(base, seq int64) bool {
	if seq-base >= s.span() {
		s.grow(base, seq)
	}
	w, bit := s.word(seq), uint64(1)<<(seq&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	s.n++
	return true
}

// grow doubles the ring until seq, above base, fits, and moves every
// member to its bit in the larger ring.
func (s *seqSet) grow(base, seq int64) {
	size := max(len(s.words), minSeqWords)
	for int64(size)<<6 <= seq-base {
		size *= 2
	}
	old, oldMask := s.words, s.span()-1
	s.words = make([]uint64, size)
	for i, w := range old {
		for ; w != 0; w &= w - 1 {
			bit := int64(i)<<6 | int64(bits.TrailingZeros64(w))
			m := base + (bit-base)&oldMask // the sequence in [base, base+old span) it names
			*s.word(m) |= 1 << (m & 63)
		}
	}
}

// drain advances a cumulative point from next across the members, a run
// of set bits at a time, removing what it passes, and returns where it
// stopped.
func (s *seqSet) drain(next int64) int64 {
	for s.n > 0 {
		w, off := s.word(next), next&63
		run := bits.TrailingZeros64(^(*w >> off))
		*w &^= (uint64(1)<<run - 1) << off
		s.n -= run
		next += int64(run)
		if off+int64(run) < 64 {
			break // the run ended inside this word
		}
	}
	return next
}

// reset empties the set, keeping the ring.
func (s *seqSet) reset() {
	if s.n > 0 {
		clear(s.words)
		s.n = 0
	}
}
