package proto

import "math/bits"

// Ring is a power-of-two circular buffer indexed by sequence number: a
// subflow's scoreboard here, and the real stack's send and reorder rings
// of payload frames. The owner keeps the live range [lo, hi) and Put
// doubles the ring on demand, so it is sized by what is actually
// outstanding, never by a window the peer advertises. The zero value is
// empty; its first Put makes at least 16 slots.
type Ring[T any] struct{ buf []T }

// Size gives an empty ring room for n >= 1 sequences, rounded up to a
// power of two. A ring in use keeps the size it has grown to.
func (r *Ring[T]) Size(n int64) {
	if r.buf == nil {
		r.buf = make([]T, 1<<bits.Len64(uint64(n-1)))
	}
}

// At returns seq's slot. Only valid for seq in [lo, lo+slots).
func (r *Ring[T]) At(seq int64) *T { return &r.buf[seq&int64(len(r.buf)-1)] }

// Put stores v at seq, growing the ring until [lo, seq] fits.
func (r *Ring[T]) Put(lo, seq int64, v T) {
	if n := int64(len(r.buf)); seq-lo >= n {
		old := r.buf
		for n = max(n, 16); n <= seq-lo; n *= 2 {
		}
		r.buf = make([]T, n)
		for s := lo; s < lo+int64(len(old)); s++ {
			*r.At(s) = old[s&int64(len(old)-1)]
		}
	}
	*r.At(seq) = v
}
