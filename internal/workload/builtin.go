package workload

import (
	"mptcp/internal/registry"
	"mptcp/internal/sim"
)

// scaledPkts converts a packets-per-second intensity into a per-unit
// size for a unit lasting d, with a floor so tiny scaled runs still
// exchange real transfers.
func scaledPkts(rate float64, d sim.Time, floor int64) int64 {
	p := int64(rate*d.Seconds() + 0.5)
	if p < floor {
		p = floor
	}
	return p
}

func init() {
	// The builders lay their rates and think times out as fractions of
	// the issuing horizon T, so the number of requests/pages/chunks per
	// run — and hence the cost and the statistical weight — is the same
	// at every -scale. Sizes that represent a *rate* (video chunks, the
	// elephant) scale with T instead, keeping the offered load in
	// packets per second meaningful against the fixed link speeds.
	// Listed alphabetically: this is the appgrid's workload axis.
	workloads.Add(registry.Info{Name: "mice", Desc: "mice-and-elephants: Poisson mice (60 over T, Pareto mean 30 pkts) vs one back-to-back elephant; metric: mouse completion time"},
		func(T sim.Time) Workload {
			return Mice{Rate: 60 / T.Seconds(), MeanPkts: 30, Elephants: 1, ElephantPkts: scaledPkts(70, T, 50)}
		})
	workloads.Add(registry.Info{Name: "rpc", Desc: "closed-loop RPC: 4 clients, 8-packet requests, exponential think (mean T/150); metric: request latency"},
		func(T sim.Time) Workload {
			return RPC{Sessions: 4, ThinkMean: T / 150, ReqPkts: 8}
		})
	workloads.Add(registry.Info{Name: "video", Desc: "DASH streaming: 2 players, chunk = T/30 of media at ~100 pkt/s, startup 2, buffer cap 5 chunks; metric: rebuffer ratio"},
		func(T sim.Time) Workload {
			chunk := T / 30
			return Video{Sessions: 2, ChunkPkts: scaledPkts(100, chunk, 2), ChunkDur: chunk, Startup: 2, AheadMax: 5}
		})
	workloads.Add(registry.Info{Name: "web", Desc: "page browsing: 3 users fetching dependency-ordered object graphs, think mean T/60; metric: page-load time"},
		func(T sim.Time) Workload {
			return Web{Sessions: 3, ThinkMean: T / 60}
		})
}
