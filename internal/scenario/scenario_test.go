package scenario_test

import (
	"strings"
	"testing"

	"mptcp/internal/netsim"
	"mptcp/internal/registry"
	"mptcp/internal/scenario"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
)

// testEnv builds a world with n duplex links (10 Mb/s, 5 ms, 50-pkt
// buffers) ready for directive scripting.
func testEnv(seed int64, n int) (*sim.Simulator, *scenario.Env) {
	s := sim.New(seed)
	nw := netsim.NewNet(s)
	env := &scenario.Env{Sim: s, Net: nw}
	for i := 0; i < n; i++ {
		env.Links = append(env.Links, topo.NewDuplex("l"+string(rune('0'+i)), 10, 5*sim.Millisecond, 50))
	}
	return s, env
}

// TestRegistryBuiltins: every builtin is described, builds a script of
// its own name, and installs cleanly onto a 2-link env with a spawn hook
// — the contract the dynamics topologies provide. The catalogue's order
// and lookup rule are pinned in internal/registry's TestCatalogues.
func TestRegistryBuiltins(t *testing.T) {
	for _, info := range scenario.Infos() {
		if info.Desc == "" {
			t.Errorf("scenario %s has no description", info.Name)
		}
	}
	for _, name := range scenario.Names() {
		_, env := testEnv(1, 2)
		env.Spawn = func(int64) {}
		sc := registry.Must(scenario.Build(name, 10*sim.Second))
		if sc.Name != name {
			t.Errorf("built scenario named %q, want %q", sc.Name, name)
		}
		if err := sc.Install(env); err != nil {
			t.Errorf("builtin %s failed to install: %v", name, err)
		}
	}
}

func TestInstallValidation(t *testing.T) {
	cases := []struct {
		name string
		d    scenario.Directive
		want string // error substring
	}{
		{"link out of range", scenario.LinkDown{Link: 2, At: sim.Second}, "out of range"},
		{"negative link", scenario.LinkUp{Link: -1}, "out of range"},
		{"bad delay factor", scenario.DelayStep{Link: 0, Factor: 0}, "positive"},
		{"bad loss", scenario.LossStep{Link: 0, Loss: 1.5}, "outside"},
		{"flap down too long", scenario.PeriodicFlap{Link: 0, Period: sim.Second, Down: sim.Second, End: 9 * sim.Second}, "Down < Period"},
		{"flap does not fit", scenario.PeriodicFlap{Link: 0, Start: 9 * sim.Second, End: 9 * sim.Second, Period: sim.Second, Down: 100 * sim.Millisecond}, "no flap fits"},
		{"ramp backwards", scenario.RateRamp{Link: 0, Start: 2 * sim.Second, End: sim.Second, From: 1, To: 0.5, Steps: 4}, "End > Start"},
		{"ramp to zero", scenario.RateRamp{Link: 0, To: 0}, "positive"},
		{"churn without spawn", scenario.FlowChurn{Start: 0, End: sim.Second, Rate: 1, MeanPkts: 10}, "Spawn"},
		{"cbr bad factor", scenario.BackgroundCBR{Link: 0, RateFactor: 0, MeanOn: sim.Second, MeanOff: sim.Second}, "positive"},
		{"cbr without end", scenario.BackgroundCBR{Link: 0, Start: sim.Second, RateFactor: 1, MeanOn: sim.Second, MeanOff: sim.Second}, "End > Start"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, env := testEnv(1, 2)
			if tc.name != "churn without spawn" {
				env.Spawn = func(int64) {}
			}
			err := scenario.Scenario{Name: "bad", Directives: []scenario.Directive{tc.d}}.Install(env)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Install = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestLinkDownUpSchedule(t *testing.T) {
	s, env := testEnv(1, 1)
	sc := scenario.Scenario{Name: "outage", Directives: []scenario.Directive{
		scenario.LinkDown{Link: 0, At: sim.Second},
		scenario.LinkUp{Link: 0, At: 3 * sim.Second},
	}}
	if err := sc.Install(env); err != nil {
		t.Fatal(err)
	}
	l := env.Links[0]
	s.RunUntil(sim.Second - 1)
	if l.AB.Down() || l.BA.Down() {
		t.Error("link down before the directive instant")
	}
	s.RunUntil(2 * sim.Second)
	if !l.AB.Down() || !l.BA.Down() {
		t.Error("LinkDown did not take both directions down")
	}
	s.RunUntil(4 * sim.Second)
	if l.AB.Down() || l.BA.Down() {
		t.Error("LinkUp did not restore the link")
	}
}

func TestRateRampSteps(t *testing.T) {
	s, env := testEnv(1, 1)
	sc := scenario.Scenario{Name: "ramp", Directives: []scenario.Directive{
		scenario.RateRamp{Link: 0, Start: sim.Second, End: 4 * sim.Second, From: 1, To: 0.25, Steps: 4},
	}}
	if err := sc.Install(env); err != nil {
		t.Fatal(err)
	}
	fwd, rev := env.Links[0].AB, env.Links[0].BA
	// Steps at 1s, 2s, 3s, 4s with factors 1, 0.75, 0.5, 0.25 of 10 Mb/s.
	wants := []struct {
		at   sim.Time
		mbps float64
	}{
		{sim.Second, 10},
		{2 * sim.Second, 7.5},
		{3 * sim.Second, 5},
		{4 * sim.Second, 2.5},
	}
	for _, w := range wants {
		s.RunUntil(w.at)
		if got := fwd.RateBps / 1e6; got != w.mbps {
			t.Errorf("at %v forward rate = %v Mb/s, want %v", w.at, got, w.mbps)
		}
	}
	if rev.RateBps != 10e6 {
		t.Errorf("reverse (ACK) direction rate changed to %v, want untouched", rev.RateBps)
	}
	s.Run()
	if s.Pending() != 0 {
		t.Errorf("%d events left after the ramp finished (timer leaked?)", s.Pending())
	}
}

func TestRateRampAbsolute(t *testing.T) {
	s, env := testEnv(1, 1)
	sc := scenario.Scenario{Name: "abs", Directives: []scenario.Directive{
		scenario.RateRamp{Link: 0, Start: sim.Second, To: 2.8, Abs: true},
	}}
	if err := sc.Install(env); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got := env.Links[0].AB.RateBps; got != 2.8e6 {
		t.Errorf("absolute set gave %v bps, want exactly 2.8e6", got)
	}
}

func TestDelayStepFactors(t *testing.T) {
	s, env := testEnv(1, 2)
	sc := scenario.Scenario{Name: "steps", Directives: []scenario.Directive{
		scenario.DelayStep{Link: 0, At: sim.Second, Factor: 2},
		// Both capture the install-time base: the second step restores it.
		scenario.DelayStep{Link: 0, At: 2 * sim.Second, Factor: 1},
	}}
	if err := sc.Install(env); err != nil {
		t.Fatal(err)
	}
	l := env.Links[0]
	s.RunUntil(sim.Second)
	if l.AB.PropDelay != 10*sim.Millisecond || l.BA.PropDelay != 10*sim.Millisecond {
		t.Errorf("factor 2 gave %v/%v, want 10ms both directions", l.AB.PropDelay, l.BA.PropDelay)
	}
	s.RunUntil(2 * sim.Second)
	if l.AB.PropDelay != 5*sim.Millisecond {
		t.Errorf("factor 1 gave %v, want the install-time 5ms back", l.AB.PropDelay)
	}
}

func TestPeriodicFlapPattern(t *testing.T) {
	s, env := testEnv(1, 1)
	flap := scenario.PeriodicFlap{Link: 0, Start: sim.Second, End: 4 * sim.Second,
		Period: sim.Second, Down: 250 * sim.Millisecond}
	if err := (scenario.Scenario{Name: "flap", Directives: []scenario.Directive{flap}}).Install(env); err != nil {
		t.Fatal(err)
	}
	l := env.Links[0]
	type sample struct {
		at   sim.Time
		down bool
	}
	// Cycles start at 1s, 2s, 3s (a 4s cycle would end its Down past End).
	samples := []sample{
		{900 * sim.Millisecond, false},
		{1100 * sim.Millisecond, true},
		{1300 * sim.Millisecond, false},
		{2100 * sim.Millisecond, true},
		{2600 * sim.Millisecond, false},
		{3100 * sim.Millisecond, true},
		{3300 * sim.Millisecond, false},
		{4100 * sim.Millisecond, false},
		{5 * sim.Second, false},
	}
	for _, smp := range samples {
		s.RunUntil(smp.at)
		if l.AB.Down() != smp.down {
			t.Errorf("at %v link down = %v, want %v", smp.at, l.AB.Down(), smp.down)
		}
	}
	s.Run()
	if s.Pending() != 0 {
		t.Errorf("%d events pending after the flap schedule ended (timer leaked?)", s.Pending())
	}
	if l.AB.Down() {
		t.Error("link must end the scenario up")
	}
}

func TestFlowChurnSpawnsAndCounts(t *testing.T) {
	s, env := testEnv(3, 1)
	var sizes []int64
	env.Spawn = func(pkts int64) { sizes = append(sizes, pkts) }
	churn := scenario.FlowChurn{Start: sim.Second, End: 21 * sim.Second, Rate: 2, MeanPkts: 50}
	if err := (scenario.Scenario{Name: "churn", Directives: []scenario.Directive{churn}}).Install(env); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if env.ChurnArrivals != int64(len(sizes)) {
		t.Errorf("ChurnArrivals %d != spawned %d", env.ChurnArrivals, len(sizes))
	}
	// ~40 expected arrivals over 20 s at 2/s; a seeded run is exact, so
	// bound loosely against distribution bugs only.
	if len(sizes) < 20 || len(sizes) > 80 {
		t.Errorf("spawned %d flows, want roughly 40", len(sizes))
	}
	var mean float64
	for _, sz := range sizes {
		if sz < 1 {
			t.Fatalf("spawned flow of %d packets", sz)
		}
		mean += float64(sz) / float64(len(sizes))
	}
	if mean < 15 || mean > 300 {
		t.Errorf("mean flow size %.1f packets, want in the vicinity of 50 (heavy-tailed)", mean)
	}
	if s.Pending() != 0 {
		t.Errorf("%d events pending after churn ended (timer leaked?)", s.Pending())
	}
}

func TestFlowChurnDeterminism(t *testing.T) {
	run := func() []int64 {
		s, env := testEnv(7, 1)
		var sizes []int64
		env.Spawn = func(pkts int64) { sizes = append(sizes, pkts) }
		churn := scenario.FlowChurn{Start: 0, End: 10 * sim.Second, Rate: 5, MeanPkts: 30}
		if err := (scenario.Scenario{Name: "churn", Directives: []scenario.Directive{churn}}).Install(env); err != nil {
			t.Fatal(err)
		}
		s.Run()
		return sizes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("same-seed churn runs spawned %d vs %d flows", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed churn diverged at flow %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBackgroundCBRWindow(t *testing.T) {
	s, env := testEnv(9, 2)
	sc := scenario.Scenario{Name: "cbr", Directives: []scenario.Directive{
		scenario.BackgroundCBR{Link: 1, Start: sim.Second, End: 5 * sim.Second,
			RateFactor: 1, MeanOn: 50 * sim.Millisecond, MeanOff: 100 * sim.Millisecond},
	}}
	if err := sc.Install(env); err != nil {
		t.Fatal(err)
	}
	l := env.Links[1].AB
	s.RunUntil(sim.Second)
	if l.Stats.Arrivals != 0 {
		t.Errorf("CBR sent %d packets before its window opened", l.Stats.Arrivals)
	}
	s.RunUntil(5 * sim.Second)
	inWindow := l.Stats.Arrivals
	if inWindow == 0 {
		t.Error("CBR sent nothing during its window")
	}
	s.RunUntil(20 * sim.Second)
	s.Run()
	if l.Stats.Arrivals != inWindow {
		t.Errorf("CBR kept sending after End: %d -> %d packets", inWindow, l.Stats.Arrivals)
	}
	// The untouched link carries nothing.
	if env.Links[0].AB.Stats.Arrivals != 0 {
		t.Error("CBR leaked onto the wrong link")
	}
}
