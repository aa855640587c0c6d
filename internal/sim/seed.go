// Derived-seed discipline shared by the parallel cell runner
// (internal/exp.CellSeed), the sharded engine (DomainSeed) and the chaos
// harness.

package sim

// MixSeed derives the child seed for unit idx of a run whose base seed
// is base, with a splitmix64-style 64-bit finalizer. Two properties the
// callers rely on:
//
//   - For a fixed base the map idx → seed is injective (the pre-mix is
//     base*φ64 + idx, injective in idx, and the finalizer is a bijection
//     on 64-bit words), so adding cells or domains to an experiment
//     never perturbs — or collides with — the seeds before them.
//   - Chained derivations MixSeed(MixSeed(base, i), j) stay well spread
//     for every int64 base. The previous stride scheme (base*1e6 + idx)
//     silently wrapped int64 once the intermediate seed reached ~9.2e18
//     — i.e. for -seed ≥ ~9.2e6 after one level of chaining — and
//     wrapped seeds from different cells could collide.
//
// The finalizer is the splitmix64 mix of Steele, Lea & Flood ("Fast
// splittable pseudorandom number generators", OOPSLA 2014); φ64 is the
// 64-bit golden-ratio increment.
func MixSeed(base int64, idx int) int64 {
	z := uint64(base)*0x9e3779b97f4a7c15 + uint64(idx)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
