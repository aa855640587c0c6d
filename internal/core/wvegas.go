package core

// totalAlpha is wVegas's target for the total number of packets the
// connection keeps queued across all its paths (the kernel module's
// total_alpha default).
const totalAlpha = 10

// WVegas is the weighted Vegas algorithm of Cao, Xu & Fu ("Delay-based
// congestion control for multipath TCP", ICNP 2012; Linux
// mptcp_wvegas.c): a delay-based controller that uses queuing delay,
// not loss, as its congestion signal, and shifts traffic between paths
// by adapting per-path weights.
//
// Per subflow r it tracks baseRTT_r (the minimum RTT observed, an
// estimate of the propagation delay, via the OnRTTSample hook) and,
// once per RTT of ACKs in congestion avoidance, estimates its backlog
// in the path's queue:
//
//	diff_r = w_r · (rtt_r − baseRTT_r) / rtt_r   [packets queued]
//
// The connection aims to keep totalAlpha packets queued in total,
// apportioned by each path's share of the aggregate rate: α_r =
// max(1, weight_r·totalAlpha) with weight_r = (w_r/baseRTT_r) / Σ_k
// (w_k/baseRTT_k). While diff_r ≤ α_r the window grows by one packet
// per RTT; when diff_r exceeds α_r the window steps down to
// w_r·baseRTT_r/rtt_r, the value that would drain r's queue share —
// the queuing-delay backoff that lets wVegas yield before any queue
// overflows. Packet loss still halves the window (the delay signal is
// advisory; loss is authoritative), and a loss resets the measurement
// epoch via OnLoss.
type WVegas struct {
	st []wvState
}

type wvState struct {
	baseRTT float64 // minimum RTT sample seen, seconds; 0 = none yet
	sumRTT  float64 // sum of samples in the current epoch
	cnt     int     // samples in the current epoch
	acked   float64 // congestion-avoidance ACKs in the current epoch
}

func (*WVegas) Name() string { return "WVEGAS" }

func (v *WVegas) ensure(n int) {
	for len(v.st) < n {
		v.st = append(v.st, wvState{})
	}
}

// OnRTTSample feeds one raw RTT measurement on subflow r.
func (v *WVegas) OnRTTSample(subs []Subflow, r int, rtt float64) {
	if rtt <= 0 {
		return
	}
	v.ensure(len(subs))
	st := &v.st[r]
	if st.baseRTT == 0 || rtt < st.baseRTT {
		st.baseRTT = rtt
	}
	st.sumRTT += rtt
	st.cnt++
}

// OnLoss discards the current epoch's measurements: the queue state
// that produced them died with the lost packet's window.
func (v *WVegas) OnLoss(subs []Subflow, r int) {
	v.ensure(len(subs))
	v.st[r].sumRTT, v.st[r].cnt, v.st[r].acked = 0, 0, 0
}

// Increase accumulates one congestion-avoidance ACK; at each epoch
// boundary (one window's worth of ACKs ≈ one RTT) it runs the Vegas
// update and returns the whole epoch's window delta — +1 while the
// path's queue share is below α_r, or a negative step down to
// w_r·baseRTT_r/rtt_r when queuing delay has grown past it. Between
// boundaries it returns 0.
func (v *WVegas) Increase(subs []Subflow, r int) float64 {
	v.ensure(len(subs))
	st := &v.st[r]
	st.acked++
	w := floorMin(subs[r].Cwnd)
	if st.acked < w {
		return 0
	}
	rtt := v.epochRTT(subs, r)
	st.sumRTT, st.cnt, st.acked = 0, 0, 0
	if st.baseRTT == 0 || rtt <= st.baseRTT {
		return 1 // no queuing observed: linear growth, one packet per RTT
	}
	diff := w * (rtt - st.baseRTT) / rtt
	if diff > v.alphaFor(subs, r) {
		return floorMin(w*st.baseRTT/rtt) - w // ≤ 0: back off to drain the excess queue
	}
	return 1
}

// epochRTT is the epoch's mean RTT sample, falling back to the smoothed
// estimate when the epoch carried no samples.
func (v *WVegas) epochRTT(subs []Subflow, r int) float64 {
	st := &v.st[r]
	if st.cnt > 0 {
		return st.sumRTT / float64(st.cnt)
	}
	return subs[r].rtt()
}

// alphaFor is subflow r's share of the connection's queued-packet
// budget, proportional to its share of the aggregate rate and at least
// one packet so every path keeps probing.
func (v *WVegas) alphaFor(subs []Subflow, r int) float64 {
	sum := 0.0
	for i := range subs {
		sum += v.rate(subs, i)
	}
	a := v.rate(subs, r) / sum * totalAlpha
	if a < 1 {
		a = 1
	}
	return a
}

// rate estimates subflow i's throughput from its window and propagation
// delay (baseRTT when known, smoothed RTT otherwise).
func (v *WVegas) rate(subs []Subflow, i int) float64 {
	rtt := subs[i].rtt()
	if i < len(v.st) && v.st[i].baseRTT > 0 {
		rtt = v.st[i].baseRTT
	}
	return floorMin(subs[i].Cwnd) / rtt
}

// Decrease halves the window: loss overrides the delay signal.
func (v *WVegas) Decrease(subs []Subflow, r int) float64 {
	return floorMin(subs[r].Cwnd / 2)
}

var (
	_ RTTObserver  = (*WVegas)(nil)
	_ LossObserver = (*WVegas)(nil)
)
