// Package workload is the application layer of the simulator: closed-
// loop request/response traffic, web-page object graphs, chunked video
// streaming and mixed mice-and-elephants file transfer, all expressed
// against one tiny spawning interface so the same workload can run over
// any topology, scheduler and congestion controller.
//
// The paper evaluates congestion control with long-running flows, but
// the dynamics users feel — page-load time, RPC tail latency, video
// rebuffering — emerge from how *applications* issue transfers: think
// times, dependency graphs, playback deadlines, closed loops. A
// Workload encodes that issuing logic as pure simulation events; the
// experiment supplies the transport underneath via Env.Spawn (in
// internal/exp, a transport.ConnPool over the cell's paths).
//
// # Binding and determinism
//
// Install schedules a workload's events on env.Sim and returns the
// Stats the run will fill; drive the simulator afterwards and read the
// stats when it stops. All randomness (think times, page shapes, flow
// sizes, arrival gaps) is drawn from env.Sim.Rand(), the world's single
// seeded source, so a workload is exactly as reproducible as the world
// it runs in. Workloads stop issuing new transfers at env.End; the
// experiment accounts for still-running transfers at the horizon
// separately (transport.ConnPool's live set).
package workload

import (
	"mptcp/internal/metrics"
	"mptcp/internal/registry"
	"mptcp/internal/sim"
)

// Spawner starts one application transfer of pkts data packets and
// calls done exactly once, at the simulated instant the final packet is
// cumulatively acknowledged. The workload layer never touches the
// transport directly — this is the whole contract.
type Spawner func(pkts int64, done func())

// Env binds a workload to one simulated world.
type Env struct {
	Sim   *sim.Simulator
	Spawn Spawner

	// End is the issuing horizon: no new transfer starts at or after
	// End. Transfers already in flight are allowed to finish (or not —
	// the caller decides when to stop the simulator).
	End sim.Time
}

// Stats is a workload run's observable outcome, filled in as the
// simulation runs. Which fields are meaningful depends on the workload;
// unused ones stay zero.
type Stats struct {
	// Issued counts transfers started; Completed counts done callbacks.
	// For web, the unit is a whole page, not an object.
	Issued    int64
	Completed int64

	// Latency summarises the workload's headline per-unit time in
	// seconds: RPC request latency, web page-load time, video chunk
	// fetch time, mice flow-completion time.
	Latency *metrics.Summary

	// Video playback accounting: seconds spent playing vs stalled
	// (post-startup), and the number of rebuffering events.
	PlaySec   float64
	StallSec  float64
	Rebuffers int64

	// ElephantPkts counts data packets of completed elephant transfers
	// (mice-and-elephants workload only).
	ElephantPkts int64
}

func newStats() *Stats {
	return &Stats{Latency: metrics.NewSummary()}
}

// Workload is one installable application behaviour.
type Workload interface {
	Name() string
	// Install schedules the workload's events on env.Sim and returns
	// the Stats the run will fill. It must be called before the
	// simulator passes the instants it schedules (time zero, in
	// practice).
	Install(env *Env) *Stats
}

// --- the catalogue of named workload builders ----------------------------

// Info is one named workload builder. The builder receives the run's
// issuing horizon T (already scaled by the caller) and lays its rates
// and think times out as fractions of T, so the offered load is
// independent of scale.
type Info struct {
	Name  string
	Desc  string
	build func(T sim.Time) Workload
}

var workloads = registry.New[Info]("workload", "workload")

// Names lists the registered workloads in catalogue order — the row
// order of the appgrid experiment.
func Names() []string { return workloads.Names() }

// Infos returns the registered workloads in Names order.
func Infos() []Info { return workloads.Entries() }

// Build constructs the named workload for a run ending at T.
func Build(name string, T sim.Time) (Workload, error) {
	e, err := workloads.Lookup(name)
	if err != nil {
		return nil, err
	}
	return e.build(T), nil
}

// MustBuild is Build for names known to be registered; it panics on
// unknown names.
func MustBuild(name string, T sim.Time) Workload {
	w, err := Build(name, T)
	if err != nil {
		panic(err.Error())
	}
	return w
}
