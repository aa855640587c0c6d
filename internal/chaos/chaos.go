// Package chaos is the fault-injection layer for the mptcpnet userspace
// transport. A net.PacketConn middleware (Path) subjects real UDP
// datagrams to the misbehaviour the paper's evaluation leans on — dead
// radios, bursty wireless loss, reordering, duplication, bit corruption,
// partitions — and the rest of the package carries and records it:
//
//   - Path wraps any net.PacketConn and applies a PathConfig to outgoing
//     datagrams: delay/jitter, i.i.d. loss, Gilbert–Elliott burst loss,
//     reordering, duplication, bit corruption and a token-bucket rate
//     limit, all driven by one seeded rng so a failing run reproduces
//     from its seed. SetDown models a radio vanishing and returning.
//     What changes a Path, and when, is not this package's business:
//     chaos/harness drives Paths by scenario scripts or a seeded random
//     walk, both on its wall Clock.
//   - Relay is a store-nothing UDP forwarder that interposes a Path
//     between two real processes, so even a sender and receiver that
//     know nothing about this package can be tested under chaos.
//   - Log is a JSONL event stream (one object per line) that soak runs
//     upload as a CI artifact, making a nightly failure replayable.
//
// The companion packages chaos/leak (goroutine snapshot-diff leak
// detector) and chaos/harness (N-socket transfer harness asserting the
// liveness and integrity invariants, and the wall Clock and Link on
// which its director and internal/scenario scripts change Paths)
// complete the test stack; see
// TESTING.md at the repo root.
package chaos

import "time"

// PathConfig is the full fault model one Path applies to its outgoing
// datagrams. The zero value is a transparent path.
//
// Datagrams leave in the order they are due (write time plus delay), and
// write order breaks ties. Jitter, ReorderRate and an Update that
// shortens Delay (or lifts RateBps) while datagrams wait are the only
// sources of reordering.
type PathConfig struct {
	// Delay is the one-way propagation delay added to every datagram;
	// Jitter adds a uniform random extra in [0, Jitter), so datagrams
	// written less than Jitter apart may overtake one another.
	Delay  time.Duration
	Jitter time.Duration

	// LossRate drops datagrams i.i.d. with this probability (0..1).
	LossRate float64

	// GE, when non-nil, runs a Gilbert–Elliott two-state burst-loss chain
	// on top of LossRate: wireless-style clustered losses rather than
	// coin flips.
	GE *GEParams

	// DupRate delivers an extra copy of the datagram with this
	// probability (the copy takes an independent delay draw).
	DupRate float64

	// CorruptRate flips 1–3 random bits in the datagram with this
	// probability before delivery — the wire checksum must catch it.
	CorruptRate float64

	// ReorderRate holds a datagram back by ReorderDelay with this
	// probability, letting later datagrams overtake it.
	ReorderRate  float64
	ReorderDelay time.Duration

	// RateBps, when > 0, serialises datagrams through a token-bucket
	// rate limit of this many bits per second.
	RateBps float64
}

// GEParams parameterises the Gilbert–Elliott burst-loss chain: a two-state
// Markov model where the bad state (deep fade) loses most datagrams and
// the good state almost none. State transitions are evaluated per
// datagram.
type GEParams struct {
	PGoodBad float64 // P(good → bad) per datagram
	PBadGood float64 // P(bad → good) per datagram
	LossGood float64 // loss probability while good
	LossBad  float64 // loss probability while bad
}

// DefaultGE is a wireless-flavoured burst-loss model: fades start rarely,
// last ~5 datagrams, and lose ~70% while they hold.
func DefaultGE() *GEParams {
	return &GEParams{PGoodBad: 0.02, PBadGood: 0.2, LossGood: 0.001, LossBad: 0.7}
}

// Stats is a Path's atomic counter snapshot.
type Stats struct {
	Sent       int64 // datagrams forwarded (including duplicates)
	Dropped    int64 // lost to LossRate/GE or a killed path
	Duplicated int64
	Corrupted  int64
	Reordered  int64
}
