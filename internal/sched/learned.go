// The learned "bandit" scheduler: a frozen contextual-bandit policy
// table and the greedy inference over it. The ML-vs-classical
// scheduling survey in PAPERS.md (arXiv:2309.09372) frames this design
// point: a learned policy over the same observables hand-tuned
// schedulers use (SRTT, cwnd, in-flight, buffer headroom), trained
// offline, deterministic at inference.

package sched

import "fmt"

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

// banditTable is a policy: a value per action bucket and per wait
// bucket, each the average normalized episode reward of the training
// episodes that used the bucket — "episodes that picked subflows looking
// like this delivered r× the minrtt baseline". A zero value means the
// bucket saw no training.
type banditTable struct {
	q [nActions]float64
	w [nWait]float64
}

// trainedBandit is the policy behind New("bandit"), frozen: corpus
// schedgrid-v1 (every schedgrid topology under 16- and 64-packet
// receive buffers, plus wifi3g under the handover and flap scripts),
// seed 1, 320 ε-greedy episodes. The values are the offline trainer's
// output, written as hex floats so each is exact, with each bucket's
// training uses beside it; the trainer itself is no longer in the tree
// (CHANGES.md has its history).
var trainedBandit = banditTable{
	q: [nActions]float64{
		5:  0x1.29729f5673158p+00, // 876 uses
		6:  0x1.0d69e325edacap+00, // 800
		9:  0x1.292d03b1802f4p+00, // 444
		10: 0x1.197416453ca43p+00, // 916
		11: 0x1.0d69e325edacap+00, // 400
		12: 0x1.c8ccac406fe8ep-01, // 97 294
		13: 0x1.c60122eb98234p-01, // 670 615
		14: 0x1.e11251380305ap-01, // 416 177
		15: 0x1.c89ae4089ae41p+00, // 1
		16: 0x1.d2c335bce3b86p-01, // 103 079
		17: 0x1.cbb5571c85af5p-01, // 296 105
		18: 0x1.d4467c797a8f6p-01, // 47 083
		19: 0x1.68dfbb28dfbb2p+00, // 2
		20: 0x1.fad88443858b6p-01, // 3 425 273
		21: 0x1.ec48ab927c00fp-01, // 228 602
		22: 0x1.d1e481cb458c8p-01, // 47 694
		23: 0x1.28d2d78f851f3p+00, // 485
		24: 0x1.c518bda6fd7f1p-01, // 12 325
		25: 0x1.b902631c388ap-01,  // 30 420
		26: 0x1.b785212a9a86cp-01, // 94 107
		28: 0x1.c3fb9de6fde06p-01, // 17 069
		29: 0x1.b8d34ba76d6a6p-01, // 33 271
		30: 0x1.b8c80ad840e9cp-01, // 42 602
		32: 0x1.e4dca30e51d46p-01, // 170 123
		33: 0x1.c8484e1347a1cp-01, // 52 409
		34: 0x1.bba7b1a83496bp-01, // 8 908
		35: 0x1.b96286efe4d73p-01, // 33
		36: 0x1.e0b218d77eb53p+00, // 7 800
		37: 0x1.132a611de91cbp+01, // 3 523
		38: 0x1.1194a2ec3993ep+01, // 2 341
		40: 0x1.e12d4941fb598p+00, // 10 248
		41: 0x1.c669f5d73c882p+00, // 2 309
		42: 0x1.021f098978607p+01, // 540
		44: 0x1.06c5aa9ae5313p+01, // 23 150
		45: 0x1.c1f84d934e05dp+00, // 3 882
		46: 0x1.047548c410a19p+01, // 803
		47: 0x1.226b90226b903p+00, // 1
	},
	w: [nWait]float64{
		0: 0x1.da039e02d48bep-01, // 1 167 376
		1: 0x1.c0d0198835f65p-01, // 445 634
	},
}

// Bandit is the learned scheduler: a contextual bandit over a frozen
// policy table. Each Pick classifies every subflow with window space
// into a feature bucket — RTT class relative to the fastest sendable
// subflow, congestion-window headroom class, and the connection's
// flow-control pressure class — and picks the candidate whose bucket has
// the highest value; a wait bucket can instead return -1 (send nothing
// now), the BLEST decision learned rather than estimated from a
// hand-tuned λ.
//
// Bandit holds only a pointer to a read-only table, so it is pure (Pick
// draws no randomness, equal inputs give equal picks), every connection
// may share the table, and New("bandit") allocates nothing.
//
// Two liveness guards bound the learned wait: the policy may only
// decline to send when the connection is under flow-control pressure
// (pressure class ≤ 1, i.e. fewer than pressLow segments of
// headroom) and when at least one subflow has data in flight — so a
// future ACK, loss or RTO event is guaranteed to re-invoke the
// scheduler and the connection can never park itself forever. And when
// no candidate's bucket has any training the pick falls back to
// PickMinRTT, so an out-of-distribution state degrades to the Linux
// default rather than to arbitrary ties.
type Bandit struct {
	t *banditTable
}

// Name implements Scheduler.
func (b Bandit) Name() string { return "bandit" }

// Pick implements Scheduler.
func (b Bandit) Pick(ctx Ctx, subs []View) int {
	press := pressureClass(ctx.Window)

	// Connection-wide signals: the fastest measured SRTT among sendable
	// subflows anchors the RTT classes, and the wait action is only
	// live while some subflow has data in flight (its ACK re-invokes
	// the scheduler, so declining now can never deadlock).
	minSRTT := 0.0
	anyInflight := false
	for _, v := range subs {
		if v.Inflight > 0 {
			anyInflight = true
		}
		if v.Sendable && v.SRTT > 0 && (minSRTT == 0 || v.SRTT < minSRTT) {
			minSRTT = v.SRTT
		}
	}

	// Greedy argmax over the trained buckets of the candidates
	// (subflows with window space); ties go to the lower subflow index.
	best, bestQ := -1, 0.0
	anySpace := false
	for i, v := range subs {
		if !v.Space() {
			continue
		}
		anySpace = true
		w := v.window()
		bkt := actionIndex(rttClass(v.SRTT, minSRTT), headroomClass(w-v.Inflight, w), press)
		if q := b.t.q[bkt]; q != 0 && (best < 0 || q > bestQ) {
			best, bestQ = i, q
		}
	}
	if !anySpace {
		return -1
	}
	if best < 0 {
		return PickMinRTT(subs, -1)
	}
	// The learned wait: under pressure, a trained wait bucket that
	// outscores every sendable candidate declines to send.
	if press <= 1 && anyInflight {
		if wq := b.t.w[waitIndex(press)]; wq != 0 && wq > bestQ {
			return -1
		}
	}
	return best
}
