package workload

import "mptcp/internal/scenario"

// Mice is the mixed mice-and-elephants workload: a Poisson open loop of
// short Pareto-sized transfers (the mice — scenario.FlowChurn reused as
// the arrival process) sharing the transport with a few long bulk
// transfers that run back to back for the whole horizon (the
// elephants). The tension is the classic one: elephants keep queues
// full, and what a good scheduler protects is the mice's completion
// time — Stats.Latency, in seconds per mouse.
//
// Issued/Completed count mice; ElephantPkts counts data packets of
// completed elephant transfers (in-flight elephant remainders are the
// experiment's horizon accounting, not the workload's).
type Mice struct {
	Rate     float64 // mice arrivals per second
	MeanPkts float64 // mean mouse size in packets (Pareto 1.5)

	Elephants    int   // concurrent bulk transfers
	ElephantPkts int64 // packets per elephant transfer; reissued until End
}

func (m Mice) Name() string { return "mice" }

func (m Mice) Install(env *Env) *Stats {
	st := newStats()
	// The mice are FlowChurn's arrival process verbatim, bound to a
	// private scenario Env whose Spawn wraps ours with the completion
	// bookkeeping the scenario layer doesn't have.
	senv := &scenario.Env{Clock: env.Sim, Rand: env.Sim.Rand()}
	senv.Spawn = func(pkts int64) {
		st.Issued++
		start := env.Sim.Now()
		env.Spawn(pkts, func() {
			st.Completed++
			st.Latency.Add((env.Sim.Now() - start).Seconds())
		})
	}
	churn := scenario.Scenario{Name: "mice", Directives: []scenario.Directive{
		scenario.FlowChurn{Start: 0, End: env.End, Rate: m.Rate, MeanPkts: m.MeanPkts},
	}}
	churn.MustInstall(senv)

	for i := 0; i < m.Elephants; i++ {
		e := &elephant{w: m, env: env, st: st}
		e.run()
	}
	return st
}

type elephant struct {
	w   Mice
	env *Env
	st  *Stats
}

func (e *elephant) run() {
	if e.env.Sim.Now() >= e.env.End {
		return
	}
	e.env.Spawn(e.w.ElephantPkts, func() {
		e.st.ElephantPkts += e.w.ElephantPkts
		e.run()
	})
}
