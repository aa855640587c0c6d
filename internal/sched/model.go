// The bandit scheduler's model: the offline-trained contextual-bandit
// policy behind the "bandit" registry entry. It holds the discretized
// feature space, the value tables, the Monte-Carlo update rule the
// offline trainer (internal/exp/train.go) applies between episodes, and
// a byte-exact serialization so a trained model can be checked in,
// embedded, and reproduced bit-for-bit. learned.go translates Views
// into bucket indices with the classifiers here and picks from the
// table. The ML-vs-classical scheduling survey in PAPERS.md
// (arXiv:2309.09372) frames this design point: a learned policy over
// the same observables hand-tuned schedulers use (SRTT, cwnd,
// in-flight, buffer headroom), trained offline, deterministic at
// inference.
//
// Determinism contract: a frozen Model is read-only — scoring draws no
// randomness and mutates nothing, so one parsed model may back every
// connection of a simulation concurrently. All training randomness
// comes from seeded generators owned by the trainer; Update applies an
// episode's bucket-usage counts in fixed index order. Marshal renders
// floats as Go hex-float literals ('x' format), which round-trip
// exactly, so Marshal ∘ ParseModel ∘ Marshal is the identity and two
// same-seed training runs serialize byte-identically.

package sched

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"
)

// The discretized feature space. A scheduling decision scores each
// candidate subflow by three features, each bucketed coarsely enough
// that a few hundred training episodes populate the table:
//
//   - RTT class: how the candidate's smoothed RTT compares to the
//     fastest currently-sendable subflow (the minRTT scheduler's
//     ordering, made categorical);
//   - headroom class: what fraction of the candidate's congestion
//     window is still free (the wcwnd scheduler's signal);
//   - pressure class: how much connection-level flow-control headroom
//     (Ctx.Window) remains — the signal BLEST thresholds by hand.
//
// The wait table scores the BLEST-style "send nothing now" action,
// indexed by pressure class alone.
const (
	// nRTT: 0 = no sample yet, 1 = fastest (≤ rttNear × min),
	// 2 = moderate (≤ rttFar × min), 3 = slow (> rttFar × min).
	nRTT = 4
	// nHeadroom: 0 = nearly full window (≤ ¼ free), 1 = half free,
	// 2 = mostly free (> ½).
	nHeadroom = 3
	// nPressure: 0 = < pressTight segments of headroom, 1 = < pressLow,
	// 2 = < pressMid, 3 = unconstrained.
	nPressure = 4
	// nActions is the size of the per-candidate value table.
	nActions = nRTT * nHeadroom * nPressure
	// nWait is the size of the wait-action value table.
	nWait = nPressure
)

// Classifier thresholds (see the constants above).
const (
	rttNear    = 1.15
	rttFar     = 2.5
	pressTight = 4
	pressLow   = 16
	pressMid   = 64
)

// rttClass buckets a candidate subflow's smoothed RTT against the
// minimum measured SRTT among sendable subflows (0 when none is
// measured). An unmeasured candidate is class 0 — distinct from slow,
// because probing an unmeasured path and parking data on a known-slow
// one are different decisions.
func rttClass(srtt, minSRTT float64) int {
	if srtt <= 0 {
		return 0
	}
	if minSRTT <= 0 {
		return 1 // the only measured subflow is, trivially, the fastest
	}
	switch ratio := srtt / minSRTT; {
	case ratio <= rttNear:
		return 1
	case ratio <= rttFar:
		return 2
	default:
		return 3
	}
}

// headroomClass buckets the candidate's free congestion window (free =
// window − inflight) as a fraction of the window.
func headroomClass(free, window int64) int {
	if window < 1 {
		window = 1
	}
	switch {
	case free*4 <= window:
		return 0
	case free*2 <= window:
		return 1
	default:
		return 2
	}
}

// pressureClass buckets the connection-level flow-control headroom
// (Ctx.Window): how many segments may still be assigned before
// the shared receive buffer binds.
func pressureClass(window int64) int {
	switch {
	case window < pressTight:
		return 0
	case window < pressLow:
		return 1
	case window < pressMid:
		return 2
	default:
		return 3
	}
}

// actionIndex flattens an (RTT class, headroom class, pressure class)
// triple into the action-table index. Out-of-range classes panic: they
// are programming errors, not data.
func actionIndex(rtt, headroom, pressure int) int {
	if rtt < 0 || rtt >= nRTT || headroom < 0 || headroom >= nHeadroom || pressure < 0 || pressure >= nPressure {
		panic(fmt.Sprintf("sched: feature classes out of range (%d, %d, %d)", rtt, headroom, pressure))
	}
	return (rtt*nHeadroom+headroom)*nPressure + pressure
}

// waitIndex is the wait-table index for a pressure class.
func waitIndex(pressure int) int {
	if pressure < 0 || pressure >= nPressure {
		panic(fmt.Sprintf("sched: pressure class out of range (%d)", pressure))
	}
	return pressure
}

// Model is a trained (or in-training) bandit policy: a value per action
// bucket, a value per wait bucket, and the usage counts the incremental
// update rule needs. Values are average normalized episode rewards —
// "episodes that picked subflows looking like this delivered r× the
// minrtt baseline" — so greedy argmax over candidate buckets prefers
// the bucket with the best track record.
type Model struct {
	// Corpus names the training corpus (provenance, serialized).
	Corpus string
	// Seed is the training base seed (provenance, serialized).
	Seed int64
	// Episodes is the number of training episodes applied.
	Episodes int64
	// Q and QN are the per-action-bucket value and usage count.
	Q  [nActions]float64
	QN [nActions]int64
	// W and WN are the per-wait-bucket value and usage count.
	W  [nWait]float64
	WN [nWait]int64
}

// Clone returns an independent copy (the trainer snapshots the policy
// at the start of each round so a round's episodes can run in
// parallel against a frozen view).
func (m *Model) Clone() *Model {
	c := *m
	return &c
}

// Episode accumulates one training episode's decisions: how many times
// each action bucket was picked and each wait bucket chosen. The
// explorer scheduler fills it; Update consumes it.
type Episode struct {
	Action [nActions]int64
	Wait   [nWait]int64
}

// Update folds one finished episode into the model: every bucket the
// episode used moves toward the episode's reward, weighted by how often
// the episode used it — the usage-weighted incremental mean
//
//	n[b] += uses;  q[b] += (reward − q[b]) · uses / n[b]
//
// so q[b] is exactly the usage-weighted average reward of all episodes
// that ever used bucket b. Buckets are applied in fixed index order and
// the rule touches no randomness, so training is deterministic given
// the episode sequence.
func (m *Model) Update(ep *Episode, reward float64) {
	for b := 0; b < nActions; b++ {
		if n := ep.Action[b]; n > 0 {
			m.QN[b] += n
			m.Q[b] += (reward - m.Q[b]) * float64(n) / float64(m.QN[b])
		}
	}
	for b := 0; b < nWait; b++ {
		if n := ep.Wait[b]; n > 0 {
			m.WN[b] += n
			m.W[b] += (reward - m.W[b]) * float64(n) / float64(m.WN[b])
		}
	}
	m.Episodes++
}

// modelVersion is the serialization format tag; bump it when the
// feature space or file shape changes incompatibly.
const modelVersion = "mptcp-bandit v1"

// embeddedModel is the checked-in trained policy behind New("bandit").
// It is produced by the deterministic offline trainer — the exact
// pinned command is documented in DESIGN.md §14 — and re-running that
// command must reproduce the file byte-for-byte.
//
//go:embed bandit.model
var embeddedModel []byte

// Marshal renders the model in the versioned text format New("bandit")
// loads. The encoding is canonical: fixed header order, only buckets
// with a non-zero count or value, fixed index order, hex-float values
// (exact round-trip), and a trailing "end" line so truncation is
// detectable. Two equal models marshal to identical bytes.
func (m *Model) Marshal() []byte {
	var sb strings.Builder
	sb.WriteString(modelVersion + "\n")
	fmt.Fprintf(&sb, "corpus %s\n", m.Corpus)
	fmt.Fprintf(&sb, "seed %d\n", m.Seed)
	fmt.Fprintf(&sb, "episodes %d\n", m.Episodes)
	fmt.Fprintf(&sb, "dims %d %d %d\n", nRTT, nHeadroom, nPressure)
	for b := 0; b < nActions; b++ {
		if m.QN[b] != 0 || m.Q[b] != 0 {
			fmt.Fprintf(&sb, "q %d %d %s\n", b, m.QN[b], strconv.FormatFloat(m.Q[b], 'x', -1, 64))
		}
	}
	for b := 0; b < nWait; b++ {
		if m.WN[b] != 0 || m.W[b] != 0 {
			fmt.Fprintf(&sb, "w %d %d %s\n", b, m.WN[b], strconv.FormatFloat(m.W[b], 'x', -1, 64))
		}
	}
	sb.WriteString("end\n")
	return []byte(sb.String())
}

// ParseModel decodes a model serialized by Marshal. It never panics on
// bad input: corrupted, truncated or version-skewed bytes yield an
// error, which New("bandit") surfaces to its caller.
func ParseModel(data []byte) (*Model, error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || lines[0] != modelVersion {
		return nil, fmt.Errorf("sched: not a %q model file", modelVersion)
	}
	m := &Model{}
	i := 1
	// Fixed header: corpus, seed, episodes, dims.
	header := func(key string) (string, error) {
		if i >= len(lines) {
			return "", fmt.Errorf("sched: truncated model: missing %s header", key)
		}
		val, ok := strings.CutPrefix(lines[i], key+" ")
		if !ok {
			return "", fmt.Errorf("sched: model line %d: want %q header, got %q", i+1, key, lines[i])
		}
		i++
		return val, nil
	}
	corpus, err := header("corpus")
	if err != nil {
		return nil, err
	}
	m.Corpus = corpus
	seedS, err := header("seed")
	if err != nil {
		return nil, err
	}
	if m.Seed, err = strconv.ParseInt(seedS, 10, 64); err != nil {
		return nil, fmt.Errorf("sched: bad seed %q: %v", seedS, err)
	}
	epS, err := header("episodes")
	if err != nil {
		return nil, err
	}
	if m.Episodes, err = strconv.ParseInt(epS, 10, 64); err != nil {
		return nil, fmt.Errorf("sched: bad episodes %q: %v", epS, err)
	}
	dims, err := header("dims")
	if err != nil {
		return nil, err
	}
	if want := fmt.Sprintf("%d %d %d", nRTT, nHeadroom, nPressure); dims != want {
		return nil, fmt.Errorf("sched: model feature space %q does not match this build (%q)", dims, want)
	}
	// Table entries, then the end marker.
	done := false
	for ; i < len(lines); i++ {
		line := lines[i]
		if line == "" {
			continue // tolerate a trailing newline only
		}
		if done {
			return nil, fmt.Errorf("sched: model line %d: content after end marker", i+1)
		}
		if line == "end" {
			done = true
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 || (f[0] != "q" && f[0] != "w") {
			return nil, fmt.Errorf("sched: model line %d: malformed entry %q", i+1, line)
		}
		idx, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sched: model line %d: bad index %q", i+1, f[1])
		}
		n, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sched: model line %d: bad count %q", i+1, f[2])
		}
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil || v != v || v > 1e308 || v < -1e308 {
			return nil, fmt.Errorf("sched: model line %d: bad value %q", i+1, f[3])
		}
		switch f[0] {
		case "q":
			if idx < 0 || idx >= nActions {
				return nil, fmt.Errorf("sched: model line %d: q index %d out of range", i+1, idx)
			}
			m.Q[idx], m.QN[idx] = v, n
		case "w":
			if idx < 0 || idx >= nWait {
				return nil, fmt.Errorf("sched: model line %d: w index %d out of range", i+1, idx)
			}
			m.W[idx], m.WN[idx] = v, n
		}
	}
	if !done {
		return nil, fmt.Errorf("sched: truncated model: no end marker")
	}
	return m, nil
}
