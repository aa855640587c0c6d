package scenario

import "mptcp/internal/sim"

// The builtin scenario library: the churn/mobility cases the ns-3 MPTCP
// studies (Chihani & Collange, arXiv:1112.1932 and 1112.4339) stress and
// the paper's §5 dynamics generalise to. Each builder lays its events
// out as fractions of the run length T, so the script's event count —
// and therefore the record shape of the dynamics grid — is the same at
// every scale. All builtins script links 0 (primary) and 1 (secondary),
// which every dynamics topology exposes. Listed alphabetically: this is
// the dynamics grid's scenario axis.
func init() {
	for _, b := range []Info{
		{"churn", "Poisson flow arrivals (rate 40/T over 0.8T: ≈32 expected) with Pareto(1.5) sizes of mean 150 packets — the §3 flash crowd",
			func(T sim.Time) Scenario {
				return Scenario{Name: "churn", Directives: []Directive{
					FlowChurn{Start: T / 10, End: 9 * T / 10, Rate: 40 / T.Seconds(), MeanPkts: 150},
				}}
			}},
		{"flap", "primary link flaps periodically (down 1/25th of T every T/10), then stays up for the final fifth",
			func(T sim.Time) Scenario {
				return Scenario{Name: "flap", Directives: []Directive{
					PeriodicFlap{Link: 0, Start: T / 5, End: 4 * T / 5, Period: T / 10, Down: T / 25},
				}}
			}},
		{"handover", "primary dies at 0.4T (secondary congests: delay x2, rate x1.3); at 0.7T a better primary appears (delay x0.5, rate x1.2)",
			func(T sim.Time) Scenario {
				return Scenario{Name: "handover", Directives: []Directive{
					LinkDown{Link: 0, At: 2 * T / 5},
					DelayStep{Link: 1, At: 2 * T / 5, Factor: 2},
					RateRamp{Link: 1, Start: 2 * T / 5, To: 1.3},
					LinkUp{Link: 0, At: 7 * T / 10},
					DelayStep{Link: 0, At: 7 * T / 10, Factor: 0.5},
					DelayStep{Link: 1, At: 7 * T / 10, Factor: 1},
					RateRamp{Link: 0, Start: 7 * T / 10, To: 1.2},
					RateRamp{Link: 1, Start: 7 * T / 10, To: 1},
				}}
			}},
		{"ramp", "primary link rate ramps down to 25% and back up in 8 steps while bursty CBR hits the secondary",
			func(T sim.Time) Scenario {
				return Scenario{Name: "ramp", Directives: []Directive{
					RateRamp{Link: 0, Start: T / 5, End: T / 2, From: 1, To: 0.25, Steps: 8},
					RateRamp{Link: 0, Start: 11 * T / 20, End: 17 * T / 20, From: 0.25, To: 1, Steps: 8},
					BackgroundCBR{Link: 1, Start: T / 10, End: 9 * T / 10,
						RateFactor: 1, MeanOn: T / 200, MeanOff: T / 40},
				}}
			}},
	} {
		scenarios.Add(b, b.Name)
	}
}
