package proto

import (
	"math/bits"
	"testing"
)

// FuzzRing holds Ring to a map model: fuzz bytes drive Puts at or above
// the low end of the live range, near it and far above it, and advances
// of that low end, which only moves forward, from a fuzzed sequence. The
// ring starts empty or at what Size makes of 1-255 slots, every start a
// scoreboard can have (16, 64, 256) among them, so it wraps, overwrites
// and grows with a live range to carry over. After every step At must
// return each live sequence's last value, and the ring must be exactly as
// large as the doubling rule makes it.
func FuzzRing(f *testing.F) {
	// The seeds put sequences at the growth boundaries: the last slot of
	// a 16-slot start and the one past it, a start of 200 rounded up to
	// 256 slots, filled to its last and then overflowed, an empty ring
	// that has to grow straight to 512 slots, and a 64-slot start that
	// wraps by one slot before it doubles.
	f.Add(uint8(16), uint32(0), []byte{0, 15, 0, 16, 2, 3, 0, 18, 0, 0})
	f.Add(uint8(200), uint32(1<<20-3), []byte{0, 255, 1 | 1<<2, 255, 2, 200, 0, 7, 1 | 2<<2, 55})
	f.Add(uint8(0), uint32(1<<31), []byte{1 | 1<<2, 200, 0, 0, 2, 255, 2, 255, 0, 1})
	f.Add(uint8(64), uint32(63), []byte{0, 63, 2, 1, 0, 63, 0, 64, 2, 64, 0, 127})
	f.Fuzz(func(t *testing.T, start uint8, lo0 uint32, ops []byte) {
		var r Ring[int64]
		want := 0
		if start > 0 {
			r.Size(int64(start))
			want = 1 << bits.Len8(start-1)
		}
		lo := int64(lo0)
		model := map[int64]int64{}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int64(ops[i+1])
			switch op & 3 {
			case 0, 1: // a Put up to 255 above lo, or up to 16 Ki above it
				seq := lo + arg
				if op&3 == 1 {
					seq += int64(op>>2) << 8
				}
				if seq-lo >= int64(want) {
					for want = max(want, 16); int64(want) <= seq-lo; want *= 2 {
					}
				}
				r.Put(lo, seq, int64(i))
				model[seq] = int64(i)
			default: // lo moves forward, and what it passes leaves the range
				lo += arg
				for seq := range model {
					if seq < lo {
						delete(model, seq)
					}
				}
			}
			if len(r.buf) != want {
				t.Fatalf("op %d: %d slots, want %d", i/2, len(r.buf), want)
			}
			for seq, v := range model {
				if got := *r.At(seq); got != v {
					t.Fatalf("op %d: At(%d) = %d with lo %d, want %d", i/2, seq, got, lo, v)
				}
			}
		}
	})
}
