package sched

// FirstFit fills subflows in configuration order: the next segment goes
// to the lowest-indexed subflow with window space. This is the
// simulator transport's historical striping order ("stripes packets
// across these subflows as space in the subflow windows becomes
// available") and the behaviour-preserving default there.
type FirstFit struct{}

// Name implements Scheduler.
func (FirstFit) Name() string { return "firstfit" }

// Pick implements Scheduler.
func (FirstFit) Pick(_ Ctx, subs []View) int {
	for i, v := range subs {
		if v.Space() {
			return i
		}
	}
	return -1
}

// MinRTT prefers the subflow with the smallest smoothed RTT among those
// with window space — the Linux MPTCP default scheduler. Subflows with
// no RTT sample yet (SRTT 0) rank slowest, so measured paths win until
// the unmeasured ones produce a sample; ties go to the lower index.
type MinRTT struct{}

// Name implements Scheduler.
func (MinRTT) Name() string { return "minrtt" }

// Pick implements Scheduler.
func (MinRTT) Pick(_ Ctx, subs []View) int {
	return PickMinRTT(subs, -1)
}

// PickMinRTT returns the min-SRTT subflow with space, skipping index
// skip (-1 to skip none); SRTT 0 (unmeasured) counts as slowest, ties
// go to the lower index. Besides MinRTT.Pick and BLEST, the endpoint
// stacks use it (with skip = the blocking subflow) to choose the target
// of an opportunistic retransmission, so the tie-breaking subtleties
// live in exactly one place.
func PickMinRTT(subs []View, skip int) int {
	best := -1
	for i, v := range subs {
		if i == skip || !v.Space() {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		if v.SRTT > 0 && (subs[best].SRTT == 0 || v.SRTT < subs[best].SRTT) {
			best = i
		}
	}
	return best
}

// RoundRobin rotates across subflows: the next segment goes to the
// subflow with the fewest segments assigned so far among those with
// window space. On homogeneous paths this converges to an even split;
// on heterogeneous paths the windows still bound each subflow's share
// (it is the classic ablation baseline, not a throughput maximiser).
type RoundRobin struct{}

// Name implements Scheduler.
func (RoundRobin) Name() string { return "roundrobin" }

// Pick implements Scheduler.
func (RoundRobin) Pick(_ Ctx, subs []View) int {
	best := -1
	for i, v := range subs {
		if !v.Space() {
			continue
		}
		if best < 0 || v.Sent < subs[best].Sent {
			best = i
		}
	}
	return best
}

// WeightedCwnd weights the striping by congestion-window state: the
// next segment goes to the subflow with the largest free window
// (cwnd − inflight), i.e. proportionally more traffic is steered onto
// the paths the congestion controller has grown the most. Ties go to
// the lower index.
type WeightedCwnd struct{}

// Name implements Scheduler.
func (WeightedCwnd) Name() string { return "wcwnd" }

// Pick implements Scheduler.
func (WeightedCwnd) Pick(_ Ctx, subs []View) int {
	best, bestFree := -1, int64(0)
	for i, v := range subs {
		if !v.Space() {
			continue
		}
		free := v.window() - v.Inflight
		if best < 0 || free > bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// Redundant duplicates every new segment on all subflows with window
// space: the pick itself is first-fit, and a sender that finds this
// type (internal/proto checks for it) copies the segment to the other
// sendable subflows. The first copy to arrive delivers the data, the
// rest count as duplicate data and consume no receive buffer — so as
// long as one path is up, the stream never stalls, at the cost of
// sending every byte on every path.
type Redundant struct{}

// Name implements Scheduler.
func (Redundant) Name() string { return "redundant" }

// Pick implements Scheduler.
func (Redundant) Pick(ctx Ctx, subs []View) int { return FirstFit{}.Pick(ctx, subs) }
