package exp

import "testing"

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
