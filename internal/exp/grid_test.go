package exp

import (
	"strings"
	"testing"
)

// TestSweepOrderAndSeeds pins the other half of the contract, the one
// every unfiltered experiment relies on: outputs come back in cell order
// whatever the worker pool does, and cell i of a one-axis grid runs with
// CellSeed(base, i).
func TestSweepOrderAndSeeds(t *testing.T) {
	idx := make([]int, 25)
	for i := range idx {
		idx[i] = i
	}
	g := grid{id: "x", axes: []axis{{"i", axisVals(idx)}}}
	cfg := Config{Seed: 9, Parallelism: 4}.norm()
	cells, seeds := sweep(newResult(g.id), cfg, g, func(c *gridCell) int64 { return c.Seed })
	if len(cells) != len(idx) {
		t.Fatalf("swept %d cells, want %d", len(cells), len(idx))
	}
	for i, c := range cells {
		if c.at[0] != i {
			t.Errorf("slot %d holds cell %d", i, c.at[0])
		}
		if seeds[i] != CellSeed(9, i) {
			t.Errorf("cell %d ran with seed %d, want %d", i, seeds[i], CellSeed(9, i))
		}
	}
}

// TestGridUnknownFilterPanics: a filter value that is well-formed but
// not on the grid's axis must fail loudly with the axis's values, not
// silently run zero cells.
func TestGridUnknownFilterPanics(t *testing.T) {
	for _, tc := range []struct {
		id      string
		filter  Config
		message string
	}{
		{"dynamics", Config{Scenario: "bogus"}, `scenario "bogus" is not a dynamics column (have [`},
		{"schedgrid", Config{Sched: "minrtt+otr"}, `scheduler "minrtt+otr" is not a schedgrid column (have [`},
		{"appgrid", Config{Workload: "bogus"}, `workload "bogus" is not an appgrid column (have [`},
		{"appgrid", Config{Sched: "roundrobin"}, `scheduler "roundrobin" is not an appgrid column (have [`},
		{"fleet", Config{Sched: "blest"}, `scheduler "blest" is not a fleet column (have [firstfit minrtt])`},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.message) {
					t.Errorf("%s %+v: panic %q, want one containing %q", tc.id, tc.filter, msg, tc.message)
				}
			}()
			e, _ := Get(tc.id)
			tc.filter.Scale = 0.02
			e.Run(tc.filter)
		}()
	}
}
