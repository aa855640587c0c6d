package exp

import (
	"math"
	"testing"

	"mptcp/internal/cc"
	"mptcp/internal/scenario"
)

// TestDynamicsGridComplete pins the dynamics experiment's acceptance
// shape: one record per (algorithm × topology × scenario) cell, every
// registered algorithm against every topology and scenario script, with
// finite metrics.
func TestDynamicsGridComplete(t *testing.T) {
	e, ok := Get("dynamics")
	if !ok {
		t.Fatal("dynamics not registered")
	}
	res := e.Run(Config{Seed: 2, Scale: 0.02})
	algs := cc.Names()
	topos := []string{"torus", "dualhomed", "wifi3g"}
	scens := scenario.Names()
	if want := len(algs) * len(topos) * len(scens); len(res.Records) != want {
		t.Fatalf("%d records, want %d (one per algorithm × topology × scenario cell)", len(res.Records), want)
	}
	seen := map[string]bool{}
	for _, r := range res.Records {
		if r.Scenario == "" {
			t.Errorf("record %s/%s has no scenario", r.Algorithm, r.Topology)
		}
		key := r.Algorithm + "/" + r.Topology + "/" + r.Scenario
		if seen[key] {
			t.Errorf("duplicate cell %s", key)
		}
		seen[key] = true
		for k, v := range r.Metrics {
			if v != v || math.IsInf(v, 0) || v < 0 {
				t.Errorf("cell %s metric %s = %v", key, k, v)
			}
		}
		if r.Metrics["jain"] > 1+1e-9 {
			t.Errorf("cell %s Jain index %v > 1", key, r.Metrics["jain"])
		}
		if r.Scenario == "churn" && r.Metrics["churn_arrivals"] == 0 {
			t.Errorf("cell %s: churn scenario spawned no flows", key)
		}
		if r.Scenario != "churn" && r.Metrics["churn_arrivals"] != 0 {
			t.Errorf("cell %s: non-churn scenario spawned %v flows", key, r.Metrics["churn_arrivals"])
		}
	}
	for _, a := range algs {
		for _, tp := range topos {
			for _, sc := range scens {
				if !seen[a+"/"+tp+"/"+sc] {
					t.Errorf("missing cell %s/%s/%s", a, tp, sc)
				}
			}
		}
	}
}

// TestDynamicsRecovery asserts the dynamics grid's qualitative claim at
// moderate scale, for the two outage scenarios (flap, handover): every
// algorithm delivers through the disturbances on every topology AND is
// moving data again in the post-disturbance recovery window. Moderate
// scale matters here — the recovery window must dwarf both the
// overbuffered 3G queueing delay (~2 s at full scale) and a backed-off
// RTO, or a healthy-but-briefly-quiet flow reads as stalled.
func TestDynamicsRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	e, _ := Get("dynamics")
	for _, scen := range []string{"flap", "handover"} {
		res := e.Run(Config{Seed: 3, Scale: 0.3, Scenario: scen})
		if len(res.Records) == 0 {
			t.Fatalf("scenario %s produced no records", scen)
		}
		for _, r := range res.Records {
			key := r.Algorithm + "/" + r.Topology + "/" + r.Scenario
			if r.Metrics["mbps"] <= 0 {
				t.Errorf("cell %s delivered nothing over the run", key)
			}
			if r.Metrics["recovery_mbps"] <= 0 {
				t.Errorf("cell %s delivered nothing after the disturbances ended", key)
			}
		}
	}
}
