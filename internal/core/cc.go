// Package core implements every multipath congestion controller as pure
// window arithmetic. The algorithms of "Design, implementation and
// evaluation of congestion control for multipath TCP" (Wischik, Raiciu,
// Greenhalgh, Handley — NSDI 2011) are:
//
//   - REGULAR (uncoupled): independent TCP NewReno on every subflow,
//   - EWTCP (§2.1): equally-weighted TCP,
//   - COUPLED (§2.2): fully coupled increase/decrease, moves all traffic
//     to the least-congested path,
//   - SEMICOUPLED (§2.4): coupled increase, per-subflow decrease,
//   - MPTCP (§2, eq. (1)): SEMICOUPLED with RTT compensation and the
//     1/w_r cap, the paper's final algorithm (standardised as RFC 6356),
//
// and the Linux-kernel successor family surveyed by Kimura & Loureiro,
// "MPTCP Linux Kernel Congestion Controls": OLIA (olia.go), BALIA
// (balia.go) and the delay-based wVegas (wvegas.go).
//
// The algorithms are pure window arithmetic with no dependency on the
// simulator or on real sockets: the one protocol core (internal/proto)
// calls them, and that core drives both the packet-level simulation
// (internal/transport) and the userspace UDP stack (internal/mptcpnet).
//
// Windows are measured in packets, as in the paper. An Algorithm only
// governs congestion avoidance; slow start, fast recovery and timeouts are
// the transport's business (they are identical across the algorithms
// evaluated in the paper). Two optional hooks, RTTObserver and
// LossObserver, feed the successors that need RTT samples (wVegas) or
// per-loss-event state (OLIA, wVegas).
//
// Construction by name lives in internal/cc, the catalogue of every
// algorithm here. Stateful instances (MPTCP's cache, OLIA's inter-loss
// counters, wVegas's per-path epochs) are owned by exactly one
// connection and never shared across connections or goroutines.
package core

import "math"

// MinCwnd is the floor on any subflow's congestion window, in packets.
// §2.4: "our implementation of COUPLED keeps window sizes ≥ 1pkt, so it
// always does some probing". We apply the same floor to every algorithm.
const MinCwnd = 1.0

// DefaultSRTT is used for a subflow that has no RTT sample yet (e.g. in
// the first round trip). MPTCP's increase formula needs an RTT for every
// subflow; before the first measurement the transport has nothing better.
const DefaultSRTT = 0.1 // seconds

// Subflow is the congestion state of one subflow as seen by an Algorithm.
type Subflow struct {
	Cwnd     float64 // congestion window, packets
	SSThresh float64 // slow-start threshold, packets
	SRTT     float64 // smoothed RTT, seconds; 0 means no sample yet
}

func (s *Subflow) rtt() float64 {
	if s.SRTT > 0 {
		return s.SRTT
	}
	return DefaultSRTT
}

// Algorithm computes congestion-avoidance window adjustments for the set
// of subflows of one connection. Implementations may keep scratch state
// and are not safe for concurrent use by multiple goroutines.
type Algorithm interface {
	// Name returns the algorithm's name as used in the paper.
	Name() string
	// Increase returns the window increment, in packets, applied to
	// subflow r upon one ACKed packet during congestion avoidance.
	Increase(subs []Subflow, r int) float64
	// Decrease returns the new congestion window for subflow r after a
	// loss event on r (the multiplicative-decrease step). The result is
	// already floored at MinCwnd.
	Decrease(subs []Subflow, r int) float64
}

// RTTObserver is an optional extension of Algorithm: OnRTTSample is
// invoked for every new RTT measurement taken on subflow r, before any
// congestion-avoidance Increase calls for the ACK that carried the
// sample. subs is the connection's live congestion state (read-only for
// the observer) and rtt is the raw, unsmoothed sample in seconds.
// Delay-based algorithms use the stream of samples to estimate
// propagation delay (their minimum) and queuing delay (the excess).
type RTTObserver interface {
	OnRTTSample(subs []Subflow, r int, rtt float64)
}

// LossObserver is an optional extension of Algorithm: OnLoss is invoked
// once per loss event on subflow r — fast-retransmit entry or a
// retransmission timeout — immediately before the algorithm's Decrease
// is applied for that event. Algorithms that keep per-loss-event state
// (e.g. OLIA's inter-loss ACK counters) update it here; Decrease stays
// pure window arithmetic.
type LossObserver interface {
	OnLoss(subs []Subflow, r int)
}

// TotalCwnd returns the sum of the subflow windows ("w_total").
func TotalCwnd(subs []Subflow) float64 {
	t := 0.0
	for i := range subs {
		t += subs[i].Cwnd
	}
	return t
}

func floorMin(w float64) float64 {
	if w < MinCwnd {
		return MinCwnd
	}
	return w
}

// Regular implements uncoupled NewReno on every subflow: increase 1/w_r
// per ACK, halve on loss. With more than one subflow this is the unfair
// strawman of §2.1; with a single subflow it is the paper's REGULAR TCP
// and the single-path baseline of every experiment.
type Regular struct{}

func (Regular) Name() string { return "REGULAR" }

func (Regular) Increase(subs []Subflow, r int) float64 {
	return 1 / floorMin(subs[r].Cwnd)
}

func (Regular) Decrease(subs []Subflow, r int) float64 {
	return floorMin(subs[r].Cwnd / 2)
}

// EWTCP implements the equally-weighted TCP of §2.1: each of n subflows
// runs a weighted AIMD such that its equilibrium window is 1/n × the
// window a regular TCP would achieve at the same loss rate. The
// connection thus takes one regular TCP's share through a shared
// bottleneck and, per §2.3, achieves the arithmetic mean of the
// single-path rates on heterogeneous paths.
//
// Note on the paper's text: §2.1 prints the increase as "a/w_r with
// a = 1/√n", but its own worked examples (§2.1 fairness, §2.3's
// "(707+141)/2 = 424 pkt/s") require the equilibrium window on each path
// to be exactly 1/n of a regular TCP's, which with halving decrease needs
// a per-ACK increase of (1/n)²/w_r. We implement the behaviour the paper
// evaluates: increase weight²/w_r with weight 1/n, so that
// w_r = weight·√(2/p_r).
type EWTCP struct{}

func (EWTCP) Name() string { return "EWTCP" }

func (EWTCP) Increase(subs []Subflow, r int) float64 {
	w := 1 / float64(len(subs))
	return w * w / floorMin(subs[r].Cwnd)
}

func (EWTCP) Decrease(subs []Subflow, r int) float64 {
	return floorMin(subs[r].Cwnd / 2)
}

// Coupled implements the fully coupled algorithm of §2.2, adapted from
// Kelly & Voice and Han et al.: increase 1/w_total per ACK on any
// subflow, decrease w_total/2 on any loss. At equilibrium only the
// least-congested paths carry traffic, so COUPLED balances congestion
// perfectly (Fig. 8) but gets trapped when path qualities change (§2.4,
// Fig. 5) and collapses onto high-RTT paths under RTT mismatch (§2.3).
type Coupled struct{}

func (Coupled) Name() string { return "COUPLED" }

func (Coupled) Increase(subs []Subflow, r int) float64 {
	return 1 / floorMin(TotalCwnd(subs))
}

func (Coupled) Decrease(subs []Subflow, r int) float64 {
	// The loss halves the aggregate: the intended decrement, w_total/2,
	// is spread across the subflows by landing on whichever subflow the
	// loss hits. With skewed windows the raw subtraction w_r − w_total/2
	// can be deeply negative, so the decrement is clamped to what
	// subflow r can actually give up before reaching the MinCwnd probe
	// floor (§2.4: "always does some probing"); the remainder of the
	// halving falls on the subflows the next losses hit. The result is
	// max(MinCwnd, w_r − w_total/2), written out so the clamp semantics
	// are explicit and pinned by TestCoupledDecreaseClampSkewed.
	dec := TotalCwnd(subs) / 2
	if room := subs[r].Cwnd - MinCwnd; dec > room {
		dec = room
	}
	if dec < 0 {
		dec = 0
	}
	return floorMin(subs[r].Cwnd - dec)
}

// SemiCoupled implements §2.4's compromise: increase a/w_total per ACK,
// halve w_r on loss. It keeps probe traffic on every path while still
// favouring the less congested ones; equilibrium splits windows in
// proportion to 1/p_r.
type SemiCoupled struct {
	// A is the aggressiveness constant. If zero, 1/n is used, which
	// makes the aggregate equal to one regular TCP when all paths have
	// equal loss rates and RTTs.
	A float64
}

func (SemiCoupled) Name() string { return "SEMICOUPLED" }

func (s SemiCoupled) a(n int) float64 {
	if s.A > 0 {
		return s.A
	}
	return 1 / float64(n)
}

func (s SemiCoupled) Increase(subs []Subflow, r int) float64 {
	return s.a(len(subs)) / floorMin(TotalCwnd(subs))
}

func (SemiCoupled) Decrease(subs []Subflow, r int) float64 {
	return floorMin(subs[r].Cwnd / 2)
}

// MPTCP is the paper's final algorithm (§2): upon each ACK on subflow r,
// increase w_r by
//
//	min over S ⊆ R, r ∈ S of   max_{s∈S} w_s/RTT_s²  /  (Σ_{s∈S} w_s/RTT_s)²
//
// and halve w_r on loss. The min over subsets embeds both the
// SEMICOUPLED-style preference for less-congested paths and the 1/w_r cap
// of §2.5 (the singleton S = {r} bounds the increase by 1/w_r), and the
// RTT terms implement §2.5's RTT compensation, so the connection takes at
// least as much as the best single-path TCP (goal (3)) and no more than a
// single-path TCP on any bottleneck (goal (4)).
//
// Following the appendix, the minimum is found with a linear search: order
// subflows by √w_s/RTT_s ascending; then only the "prefix" sets
// {1..u} for u ≥ position(r) can attain the minimum.
type MPTCP struct {
	// PerAck, if true, recomputes the increase on every call. If false
	// (the default), the increase is cached and recomputed only when the
	// total window has grown by at least one packet since the last
	// computation — the optimisation described in §2: "we compute the
	// increase parameter only when the congestion windows grow to
	// accommodate one more packet, rather than every ACK".
	PerAck bool

	// scratch state (single connection, single goroutine).
	ord        []int
	cached     []float64
	cacheTotal float64
	cacheN     int
}

func (*MPTCP) Name() string { return "MPTCP" }

// rawIncrease computes eq. (1) for subflow r by the appendix's linear
// search.
func (m *MPTCP) rawIncrease(subs []Subflow, r int) float64 {
	n := len(subs)
	if n == 1 {
		return 1 / floorMin(subs[0].Cwnd)
	}
	if cap(m.ord) < n {
		m.ord = make([]int, n)
	}
	ord := m.ord[:n]
	for i := range ord {
		ord[i] = i
	}
	// Ascending √w/RTT ⇔ ascending w/RTT². An insertion sort in place: it
	// allocates nothing, and it is the sort sort.Slice runs on up to 12
	// elements, so ties keep the order every pinned result was made with.
	key := func(i int) float64 {
		s := &subs[i]
		rtt := s.rtt()
		return floorMin(s.Cwnd) / (rtt * rtt)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && key(ord[j]) < key(ord[j-1]); j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}

	pos := 0
	for i, idx := range ord {
		if idx == r {
			pos = i
			break
		}
	}
	best := math.Inf(1)
	sum := 0.0
	for u := 0; u < n; u++ {
		s := &subs[ord[u]]
		w := floorMin(s.Cwnd)
		rtt := s.rtt()
		sum += w / rtt
		if u < pos {
			continue
		}
		cand := (w / (rtt * rtt)) / (sum * sum)
		if cand < best {
			best = cand
		}
	}
	return best
}

func (m *MPTCP) Increase(subs []Subflow, r int) float64 {
	if m.PerAck {
		return m.rawIncrease(subs, r)
	}
	n := len(subs)
	total := TotalCwnd(subs)
	if m.cacheN != n || total >= m.cacheTotal+1 || total < m.cacheTotal-1 {
		if cap(m.cached) < n {
			m.cached = make([]float64, n)
		}
		m.cached = m.cached[:n]
		for i := 0; i < n; i++ {
			m.cached[i] = m.rawIncrease(subs, i)
		}
		m.cacheTotal = total
		m.cacheN = n
	}
	return m.cached[r]
}

func (m *MPTCP) Decrease(subs []Subflow, r int) float64 {
	// Window state changed: invalidate the cache.
	m.cacheN = 0
	return floorMin(subs[r].Cwnd / 2)
}
