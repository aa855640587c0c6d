package exp

import (
	"reflect"
	"strings"
	"testing"
)

// gridFilters names, for every grid, one filter per Config field that
// addresses one of its axes: the (deliberately non-canonical) value to
// filter on, the Record field it must select, and the canonical value
// that field then holds.
var gridFilters = []struct {
	id     string
	filter Config
	field  func(Record) string
	want   string
}{
	{"dynamics", Config{Scenario: "flap"}, func(r Record) string { return r.Scenario }, "flap"},
	{"dynamics", Config{Scenario: "FLAP"}, func(r Record) string { return r.Scenario }, "flap"},
	{"schedgrid", Config{Sched: "BLEST"}, func(r Record) string { return r.Scheduler }, "blest"},
	{"schedgrid", Config{Sched: "MinRTT+pen+otr"}, func(r Record) string { return r.Scheduler }, "minrtt+otr+pen"},
	{"appgrid", Config{Workload: "video"}, func(r Record) string { return r.Workload }, "video"},
	{"appgrid", Config{Workload: "Video"}, func(r Record) string { return r.Workload }, "video"},
	{"appgrid", Config{Sched: "Bandit"}, func(r Record) string { return r.Scheduler }, "bandit"},
	{"fleet", Config{Sched: "MinRTT"}, func(r Record) string { return r.Scheduler }, "minrtt"},
	// No axis of the tournament is filterable: every filter is ignored.
	{"tournament", Config{Scenario: "flap", Sched: "blest", Workload: "video"}, func(Record) string { return "" }, ""},
}

// TestGridFilterKeepsSeeds pins the filter contract for all five grids:
// a filtered run selects a non-empty subset of cells and reproduces
// those cells' records bit for bit, because cell seeds derive from
// full-grid indices rather than filtered positions; and the filter
// value is canonicalised before it is matched.
func TestGridFilterKeepsSeeds(t *testing.T) {
	full := map[string]*Result{}
	for _, tc := range gridFilters {
		e, ok := Get(tc.id)
		if !ok {
			t.Fatalf("%s not registered", tc.id)
		}
		if full[tc.id] == nil {
			full[tc.id] = e.Run(Config{Seed: 4, Scale: 0.02})
		}
		cfg := tc.filter
		cfg.Seed, cfg.Scale = 4, 0.02
		got := e.Run(cfg)
		var want []Record
		for _, r := range full[tc.id].Records {
			if tc.field(r) == tc.want {
				want = append(want, r)
			}
		}
		if len(got.Records) == 0 || !reflect.DeepEqual(got.Records, want) {
			t.Errorf("%s %+v: %d filtered records diverge from the full grid's %d %q cells",
				tc.id, tc.filter, len(got.Records), len(want), tc.want)
		}
	}
}

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
