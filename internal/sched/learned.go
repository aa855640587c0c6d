package sched

import (
	"fmt"
	"math/rand"
	"sync"
)

// banditProvenance renders the registry Provenance line from the
// embedded model's header. It is lenient by design: listing the
// catalogue must work even when the model file is damaged (loading it
// is where the error surfaces).
func banditProvenance() string {
	m, err := ParseModel(embeddedModel)
	if err != nil {
		return "embedded model unreadable"
	}
	return fmt.Sprintf("%s, corpus %s, seed %d, %d episodes", modelVersion, m.Corpus, m.Seed, m.Episodes)
}

// The embedded model is parsed once and shared read-only by every
// Bandit instance; banditReset (tests only) swaps the bytes and drops
// the cache.
var (
	banditMu     sync.Mutex
	banditBytes  []byte // nil means embeddedModel
	banditModel  *Model
	banditLoaded bool
)

func loadBanditModel() (*Model, error) {
	banditMu.Lock()
	defer banditMu.Unlock()
	if !banditLoaded {
		b := banditBytes
		if b == nil {
			b = embeddedModel
		}
		var err error
		banditModel, err = ParseModel(b)
		if err != nil {
			return nil, err
		}
		banditLoaded = true
	}
	return banditModel, nil
}

// banditReset (tests only) swaps the model bytes behind New("bandit")
// and invalidates the cache; nil restores the embedded model.
func banditReset(b []byte) {
	banditMu.Lock()
	defer banditMu.Unlock()
	banditBytes = b
	banditModel, banditLoaded = nil, false
}

// Bandit is the learned scheduler: a contextual bandit whose policy
// table was trained offline over the schedgrid corpus (see model.go and
// the trainer in internal/exp). Each Pick classifies every subflow with
// window space into a feature bucket — RTT class
// relative to the fastest sendable subflow, congestion-window headroom
// class, and the connection's flow-control pressure class — and picks
// the candidate whose bucket has the highest trained value; a trained
// wait bucket can instead return -1 (send nothing now), the BLEST
// decision learned rather than estimated from a hand-tuned λ.
//
// A frozen Bandit (everything New returns) is pure: the policy
// table is read-only, Pick draws no randomness, and equal inputs
// always produce equal picks. Exploration exists only in the trainer's
// explorer instances, whose ε-greedy randomness comes from a seeded
// generator injected at construction — never from a world rng, and
// never at inference.
//
// Two liveness guards bound the learned wait: the policy may only
// decline to send when the connection is under flow-control pressure
// (pressure class ≤ 1, i.e. fewer than pressLow segments of
// headroom) and when at least one subflow has data in flight — so a
// future ACK, loss or RTO event is guaranteed to re-invoke the
// scheduler and the connection can never park itself forever. And when
// no candidate's bucket has any training data the pick falls back to
// PickMinRTT, so an untrained (or out-of-distribution) model degrades
// to the Linux default rather than to arbitrary ties.
type Bandit struct {
	model *Model

	// Exploration state — nil/zero on frozen instances.
	rng *rand.Rand
	eps float64
	ep  *Episode
}

// NewBandit returns a frozen greedy Bandit over the embedded trained
// model. The model is parsed once and shared; a damaged model file is
// an error (New("bandit") reports it instead of panicking).
func NewBandit() (*Bandit, error) {
	m, err := loadBanditModel()
	if err != nil {
		return nil, err
	}
	return NewBanditFrom(m), nil
}

// NewBanditFrom returns a frozen greedy Bandit over an explicit model
// (the trainer's evaluation passes and tests use it). The model must
// not be mutated while the scheduler is in use.
func NewBanditFrom(m *Model) *Bandit {
	return &Bandit{model: m}
}

// NewBanditExplorer returns a training-time Bandit: with probability
// eps a Pick chooses uniformly among the sendable candidates (plus the
// wait action when the liveness guards allow it) using rng, otherwise
// it exploits greedily; either way the decision's bucket usage is
// recorded into ep for the trainer's post-episode Update. rng is owned
// by the caller and must be seeded deterministically; one explorer may
// be shared by every connection of a single-threaded simulation
// episode (its state is only touched from Pick).
func NewBanditExplorer(m *Model, rng *rand.Rand, eps float64, ep *Episode) *Bandit {
	return &Bandit{model: m, rng: rng, eps: eps, ep: ep}
}

// Name implements Scheduler.
func (b *Bandit) Name() string { return "bandit" }

// Pick implements Scheduler.
func (b *Bandit) Pick(ctx Ctx, subs []View) int {
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
	waitOK := press <= 1 && anyInflight

	// Classify the candidates (subflows with window space).
	var (
		cands   [16]int // scratch: candidate subflow indices (append spills past 16)
		buckets [16]int
	)
	candIdx, bucketOf := cands[:0], buckets[:0]
	for i, v := range subs {
		if !v.Space() {
			continue
		}
		w := v.window()
		bkt := actionIndex(
			rttClass(v.SRTT, minSRTT),
			headroomClass(w-v.Inflight, w),
			press,
		)
		candIdx = append(candIdx, i)
		bucketOf = append(bucketOf, bkt)
	}
	nc := len(candIdx)
	if nc == 0 {
		return -1
	}

	// Explore: ε-greedy over candidates plus (when live) the wait arm.
	if b.rng != nil && b.rng.Float64() < b.eps {
		arms := nc
		if waitOK {
			arms++
		}
		k := b.rng.Intn(arms)
		if k == nc {
			b.ep.Wait[waitIndex(press)]++
			return -1
		}
		b.ep.Action[bucketOf[k]]++
		return candIdx[k]
	}

	// Exploit: greedy argmax over trained candidate buckets; ties go to
	// the lower subflow index. With no trained candidate at all, fall
	// back to minRTT.
	best, bestBkt := -1, -1
	bestQ := 0.0
	trained := false
	for k := 0; k < nc; k++ {
		bkt := bucketOf[k]
		if b.model.QN[bkt] == 0 {
			continue
		}
		if q := b.model.Q[bkt]; !trained || q > bestQ {
			best, bestBkt, bestQ = candIdx[k], bkt, q
			trained = true
		}
	}
	if !trained {
		i := PickMinRTT(subs, -1)
		if i >= 0 && b.ep != nil {
			// Record the fallback's bucket too: early training rounds
			// take this path, and the episode reward must still reach
			// the buckets the episode actually exercised.
			for k := 0; k < nc; k++ {
				if candIdx[k] == i {
					b.ep.Action[bucketOf[k]]++
				}
			}
		}
		return i
	}
	// The learned wait: under pressure, a trained wait bucket that
	// outscores every sendable candidate declines to send.
	if waitOK {
		wi := waitIndex(press)
		if b.model.WN[wi] > 0 && b.model.W[wi] > bestQ {
			if b.ep != nil {
				b.ep.Wait[wi]++
			}
			return -1
		}
	}
	if b.ep != nil {
		b.ep.Action[bestBkt]++
	}
	return best
}
