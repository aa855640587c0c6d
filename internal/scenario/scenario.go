// Package scenario is the declarative network-dynamics engine. A
// Scenario is a named list of typed directives — link flaps, rate ramps,
// delay steps, background interference, flow churn — that compile onto
// the deterministic event engine of internal/sim and drive any
// netsim.Net-backed topology.
//
// The paper's most compelling results (§5: WiFi/3G handover, mobility,
// flash-crowd dynamics) come from *time-varying* networks. Before this
// package those dynamics were hand-coded one-off closures inside
// individual experiments; a Scenario makes them reusable data: the same
// "handover" script can run against the torus, the dual-homed server or
// the wireless client, under every registered congestion-control
// algorithm (the `dynamics` experiment in internal/exp does exactly
// that).
//
// # Binding and determinism
//
// A Scenario is pure data until Install binds it to an Env — one
// simulated world plus the duplex links a topology exposes for scripting
// (by index, in the topology's canonical order) and an optional Spawn
// callback for flow churn. Installing schedules every directive's events
// on env.Sim; periodic directives (PeriodicFlap, RateRamp, FlowChurn)
// compile onto one rearm-in-place sim.Timer each and stop rearming it
// when they finish, so a completed scenario leaves no events behind.
//
// All scenario randomness (churn arrival gaps, Pareto flow sizes, CBR
// burst lengths) is drawn from env.Sim.Rand() — the world's single
// seeded source — so a scenario run is exactly as reproducible as the
// world it runs in: same seed, bit-identical schedule. Directives with
// relative parameters (rate/delay factors) capture their base values at
// install time, which makes one scenario meaningful across topologies
// with very different link speeds.
package scenario

import (
	"fmt"

	"mptcp/internal/netsim"
	"mptcp/internal/registry"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
)

// Env is the binding target of a scenario: one simulated world and the
// link set a topology exposes for scripting. Directives reference links
// by index into Links (the topology's canonical order, e.g. the torus's
// links A..E, or [WiFi, 3G] for the wireless client).
type Env struct {
	Sim *sim.Simulator
	Net *netsim.Net

	// Links are the scriptable duplex links, in canonical order.
	Links []*topo.Duplex

	// Spawn starts one short-lived flow of the given size in packets;
	// required by FlowChurn, ignored by every other directive. The
	// callee owns the flow: typically a transport.ConnPool life with
	// DataPackets set, handed back to the pool on completion.
	Spawn func(pkts int64)

	// ChurnArrivals counts the flows FlowChurn spawned; read it after
	// the run for reporting.
	ChurnArrivals int64
}

func (e *Env) link(i int) (*topo.Duplex, error) {
	if i < 0 || i >= len(e.Links) {
		return nil, fmt.Errorf("link %d out of range (env has %d)", i, len(e.Links))
	}
	return e.Links[i], nil
}

// Directive is one typed entry of a scenario script. Implementations
// validate themselves against the Env and schedule their events; they
// are pure data before install.
type Directive interface {
	install(env *Env) error
}

// Scenario is a named, declarative list of directives. The zero value
// is an empty scenario. Times inside directives are absolute simulated
// instants; builders (see Build) lay them out as fractions of a run
// length so one script scales with the experiment.
type Scenario struct {
	Name       string
	Directives []Directive
}

// Install validates every directive against env and schedules its
// events on env.Sim. It must be called before the instants the
// directives reference (scheduling in the past panics in sim);
// experiments install at time zero, right after building their flows.
func (s Scenario) Install(env *Env) error {
	if env == nil || env.Sim == nil {
		return fmt.Errorf("scenario %s: install needs an Env with a Simulator", s.Name)
	}
	for i, d := range s.Directives {
		if err := d.install(env); err != nil {
			return fmt.Errorf("scenario %s: directive %d (%T): %w", s.Name, i, d, err)
		}
	}
	return nil
}

// MustInstall is Install for static scripts whose validity is a code
// invariant; it panics on error.
func (s Scenario) MustInstall(env *Env) {
	if err := s.Install(env); err != nil {
		panic("scenario: " + err.Error())
	}
}

// --- the catalogue of named scenario builders ---------------------------

// scenarios holds one builder per named scenario. A builder receives the
// run's end time T (already scaled by the caller) and lays its script
// out as fractions of T, so what it does per run is the same at every
// scale.
var scenarios = registry.New[func(T sim.Time) Scenario]("scenario", "scenario")

// Names lists the registered scenarios in catalogue order — the column
// order of the dynamics grid.
func Names() []string { return scenarios.Names() }

// Infos returns the catalogue's metadata records in Names order.
func Infos() []registry.Info { return scenarios.Infos() }

// Build constructs the named scenario for a run ending at T.
func Build(name string, T sim.Time) (Scenario, error) { return registry.Build(scenarios, name, T) }
