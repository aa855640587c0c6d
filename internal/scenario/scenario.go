// Package scenario is the declarative network-dynamics engine. A
// Scenario is a named list of typed directives — link flaps, rate ramps,
// delay steps, background interference, flow churn — that compile onto
// a Clock and drive any set of scriptable Links.
//
// The paper's most compelling results (§5: WiFi/3G handover, mobility,
// flash-crowd dynamics) come from *time-varying* networks. Before this
// package those dynamics were hand-coded one-off closures inside
// individual experiments; a Scenario makes them reusable data: the same
// "handover" script can run against the torus, the dual-homed server or
// the wireless client, under every registered congestion-control
// algorithm (the `dynamics` experiment in internal/exp does exactly
// that), and against the real UDP stack's chaos paths
// (internal/chaos/harness).
//
// # Binding and determinism
//
// A Scenario is pure data until Install binds it to an Env: a Clock,
// the Links a topology exposes for scripting (by index, in the
// topology's canonical order) and, for the directives that need the
// simulator, its Net, random source and a Spawn callback. On the
// simulator the Clock is the *sim.Simulator itself and the Links are
// *topo.Duplex; the chaos harness binds wall time and chaos.Path pairs.
// Installing schedules every directive's events with Clock.At; periodic
// directives (PeriodicFlap, RateRamp, FlowChurn) keep one pending event
// each, chaining the next from the step that fires, and stop when they
// finish, so a completed scenario leaves no events behind.
//
// All scenario randomness (churn arrival gaps, Pareto flow sizes, CBR
// burst lengths) is drawn from the simulated world's single seeded
// source, so a scenario run is exactly as reproducible as the world it
// runs in: same seed, bit-identical schedule. Directives with relative
// parameters (rate/delay factors) capture their base values at install
// time, which makes one scenario meaningful across topologies with very
// different link speeds.
package scenario

import (
	"fmt"
	"math/rand"

	"mptcp/internal/netsim"
	"mptcp/internal/registry"
	"mptcp/internal/sim"
)

// Clock is the time a scenario runs on: *sim.Simulator, or a wall clock
// over real sockets. At runs f once at absolute time t.
type Clock interface {
	Now() sim.Time
	At(t sim.Time, f func())
}

// Link is one scriptable bidirectional link: *topo.Duplex, or a pair of
// chaos paths. SetDown, SetDelay and SetLossRate act on both
// directions; Rate and SetRate are the forward (data) direction's line
// rate in Mb/s, Delay its propagation delay.
type Link interface {
	SetDown(down bool)
	Delay() sim.Time
	SetDelay(d sim.Time)
	Rate() float64
	SetRate(mbps float64)
	SetLossRate(p float64)
}

// Env is the binding target of a scenario: a clock and the link set a
// topology exposes for scripting. Directives reference links by index
// into Links (the topology's canonical order, e.g. the torus's links
// A..E, or [WiFi, 3G] for the wireless client).
type Env struct {
	Clock Clock
	Links []Link

	// Net and Rand are the simulated world's packet network and seeded
	// random source; BackgroundCBR needs Net, FlowChurn needs Rand.
	Net  *netsim.Net
	Rand *rand.Rand

	// Spawn starts one short-lived flow of the given size in packets;
	// required by FlowChurn, ignored by every other directive. The
	// callee owns the flow: typically a transport.ConnPool life with
	// DataPackets set, handed back to the pool on completion.
	Spawn func(pkts int64)

	// ChurnArrivals counts the flows FlowChurn spawned; read it after
	// the run for reporting.
	ChurnArrivals int64
}

func (e *Env) link(i int) (Link, error) {
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
// events on env.Clock. It must be called before the instants the
// directives reference (scheduling in the past panics in sim);
// experiments install at time zero, right after building their flows.
// Install is atomic: the directives install onto a clock that holds
// their events back, and only once every one has succeeded do the
// events reach env.Clock, in the order they were scheduled. A failing
// directive leaves nothing scheduled.
func (s Scenario) Install(env *Env) error {
	if env == nil || env.Clock == nil {
		return fmt.Errorf("scenario %s: install needs an Env with a Clock", s.Name)
	}
	clock := env.Clock
	held := &heldClock{Clock: clock, evs: make([]heldEvent, 0, 2*len(s.Directives))}
	var err error
	env.Clock = held
	for i, d := range s.Directives {
		if err = d.install(env); err != nil {
			err = fmt.Errorf("scenario %s: directive %d (%T): %w", s.Name, i, d, err)
			break
		}
	}
	env.Clock = clock // before any event can fire and schedule its successor
	if err != nil {
		return err
	}
	for _, e := range held.evs {
		clock.At(e.t, e.f)
	}
	return nil
}

// heldClock is the Clock directives install onto: Now is the real
// clock's, and At only records the event. A directive schedules at most
// two events at install (BackgroundCBR's start and stop), so a buffer of
// twice the directives never grows.
type heldClock struct {
	Clock
	evs []heldEvent
}

type heldEvent struct {
	t sim.Time
	f func()
}

func (c *heldClock) At(t sim.Time, f func()) { c.evs = append(c.evs, heldEvent{t, f}) }

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
