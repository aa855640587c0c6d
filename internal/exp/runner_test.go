package exp

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mptcp/internal/sim"
)

func TestCellSeedDerivation(t *testing.T) {
	// The derivation is pinned to sim.MixSeed: a silent change to the
	// mix would invalidate every golden in the repo at once.
	if got, want := CellSeed(42, 0), sim.MixSeed(42, 0); got != want {
		t.Errorf("CellSeed(42, 0) = %d, want %d", got, want)
	}
	if got, want := CellSeed(42, 7), sim.MixSeed(42, 7); got != want {
		t.Errorf("CellSeed(42, 7) = %d, want %d", got, want)
	}
	// Distinct (base, idx) pairs give distinct seeds — including the
	// huge bases that overflowed the old base*1e6+idx stride scheme.
	seen := map[int64]bool{}
	for _, base := range []int64{0, 1, 2, 3, 42, -7, 9_200_000, 9_200_001, 1 << 40, math.MaxInt64} {
		for idx := 0; idx < 1000; idx++ {
			s := CellSeed(base, idx)
			if seen[s] {
				t.Fatalf("seed collision at base %d idx %d", base, idx)
			}
			seen[s] = true
		}
	}
}

// TestChainedSeedDerivationNoCollision is the regression test for the
// seed-overflow bug: the fleet experiment derives
// DomainSeed(CellSeed(base, i), j), and under the old stride scheme the
// intermediate seed wrapped int64 for base ≥ ~9.2e6, letting chained
// seeds from different cells collide. The mix keeps every chained pair
// distinct even for extreme bases.
func TestChainedSeedDerivationNoCollision(t *testing.T) {
	seen := map[int64]string{}
	for _, base := range []int64{42, 9_200_000, 1 << 55, math.MinInt64} {
		for i := 0; i < 64; i++ {
			cell := CellSeed(base, i)
			for j := 0; j < 64; j++ {
				s := sim.DomainSeed(cell, j)
				key := fmt.Sprintf("base %d cell %d domain %d", base, i, j)
				if prev, dup := seen[s]; dup {
					t.Fatalf("chained seed collision: %s and %s both derive %d", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
}

// TestDeterminismAcrossParallelism is the regression test for the
// parallel runner's core guarantee: a representative multi-cell
// experiment produces bit-identical results whether its cells run on one
// worker or eight, because every cell's randomness derives from
// CellSeed(base, idx) rather than from scheduling order. The tournament
// (8 algorithms × 4 topologies) and the dynamics grid (8 algorithms ×
// 3 topologies × 4 scenarios — the largest, and the one whose scenario
// scripts drive timers, churn and background traffic from the world
// rng) are covered so the full matrices inherit the guarantee,
// including their per-cell Records. A repeated same-seed parallel run
// guards against any hidden shared state between cells.
func TestDeterminismAcrossParallelism(t *testing.T) {
	for _, id := range []string{"fig8-torus", "sec23-wifi3g-model", "tournament", "dynamics", "schedgrid", "fleet", "appgrid"} {
		t.Run(id, func(t *testing.T) {
			e, ok := Get(id)
			if !ok {
				t.Fatalf("%s not registered", id)
			}
			serial := e.Run(Config{Seed: 5, Scale: 0.02, Parallelism: 1})
			parallel := e.Run(Config{Seed: 5, Scale: 0.02, Parallelism: 8})
			if !reflect.DeepEqual(serial.Metrics, parallel.Metrics) {
				t.Errorf("metrics diverge across parallelism:\n  serial:   %v\n  parallel: %v",
					serial.Metrics, parallel.Metrics)
			}
			if !reflect.DeepEqual(serial.Records, parallel.Records) {
				t.Error("per-cell records diverge across parallelism")
			}
			again := e.Run(Config{Seed: 5, Scale: 0.02, Parallelism: 8})
			if !reflect.DeepEqual(parallel.Metrics, again.Metrics) || !reflect.DeepEqual(parallel.Records, again.Records) {
				t.Error("two same-seed runs diverge (hidden shared state between cells?)")
			}
			var sa, sb strings.Builder
			serial.Render(&sa)
			parallel.Render(&sb)
			if sa.String() != sb.String() {
				t.Error("rendered reports diverge across parallelism")
			}
		})
	}
}

func TestRunBatchOrderSeedsAndDeterminism(t *testing.T) {
	e1, _ := Get("fig3-mesh")
	e2, _ := Get("ablation-reinject")
	exps := []*Experiment{e1, e2}
	collect := func(cfg Config) []TrialResult {
		var out []TrialResult
		RunBatchStream(cfg, exps, 2, func(tr TrialResult) { out = append(out, tr) })
		return out
	}
	cfg := Config{Seed: 3, Scale: 0.02, Parallelism: 4}
	batch := collect(cfg)
	if len(batch) != 4 {
		t.Fatalf("got %d trial results, want 4", len(batch))
	}
	wantIDs := []string{"fig3-mesh", "fig3-mesh", "ablation-reinject", "ablation-reinject"}
	for i, tr := range batch {
		if tr.ID != wantIDs[i] || tr.Trial != i%2 {
			t.Errorf("slot %d: got (%s, trial %d)", i, tr.ID, tr.Trial)
		}
		if tr.Seed != cfg.Seed+int64(i%2) {
			t.Errorf("slot %d: seed %d, want %d", i, tr.Seed, cfg.Seed+int64(i%2))
		}
		if tr.Result == nil || tr.Result.ID != tr.ID {
			t.Errorf("slot %d: bad result %+v", i, tr.Result)
		}
	}
	serial := collect(Config{Seed: 3, Scale: 0.02, Parallelism: 1})
	for i := range batch {
		if serial[i].ID != batch[i].ID || serial[i].Trial != batch[i].Trial {
			t.Errorf("slot %d: serial (%s, trial %d), parallel (%s, trial %d)",
				i, serial[i].ID, serial[i].Trial, batch[i].ID, batch[i].Trial)
		}
		if !reflect.DeepEqual(batch[i].Result.Metrics, serial[i].Result.Metrics) {
			t.Errorf("trial %d metrics diverge between batch parallelism 4 and 1", i)
		}
	}
}
