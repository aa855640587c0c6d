package exp

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mptcp/internal/analyze"
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

// TestWriteJSONLShapes pins the two line shapes of the one JSONL writer
// byte for byte: a grid trial writes one line per Record, stamped with
// the trial's identity and carrying only the dimensions its grid sets; a
// trial without cells writes one line of headline metrics, notes and
// wall time. NaN and ±Inf cannot be JSON numbers, so they are left out
// of the line, and the Result they came from keeps them. Strings keep
// encoding/json's default HTML escaping, as every artefact always has.
func TestWriteJSONLShapes(t *testing.T) {
	cell := map[string]float64{"mbps": 1.5, "fct_p99_s": math.NaN(), "ratio": math.Inf(1)}
	grid := TrialResult{ID: "g", Ref: "§0", Trial: 2, Seed: 44, Scale: 0.5, WallSec: 3, Result: &Result{
		Records: []Record{
			{Algorithm: "MPTCP", Topology: "torus", Metrics: cell},
			{Algorithm: "OLIA", Topology: "wifi3g", Scenario: "handover", Scheduler: "minrtt+otr+pen", Workload: "video", RecvBuf: 16, Metrics: map[string]float64{}},
		},
	}}
	figure := TrialResult{ID: "f", Ref: "§1 Fig. 1", Trial: 0, Seed: 42, Scale: 1, WallSec: 0.25, Result: &Result{
		Metrics: map[string]float64{"b": 2, "a": math.Inf(-1)},
		Notes:   []string{"a <note>"},
	}}
	var b strings.Builder
	for _, tr := range []TrialResult{grid, figure} {
		if err := tr.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
	}
	want := `{"id":"g","trial":2,"seed":44,"scale":0.5,"algorithm":"MPTCP","topology":"torus","metrics":{"mbps":1.5}}
{"id":"g","trial":2,"seed":44,"scale":0.5,"algorithm":"OLIA","topology":"wifi3g","scenario":"handover","scheduler":"minrtt+otr+pen","workload":"video","recv_buf":16,"metrics":{}}
{"id":"f","ref":"§1 Fig. 1","trial":0,"seed":42,"scale":1,"wall_s":0.25,"metrics":{"b":2},"notes":["a \u003cnote\u003e"]}
`
	if b.String() != want {
		t.Errorf("JSONL:\n%s\nwant:\n%s", b.String(), want)
	}
	if len(cell) != 3 || len(figure.Result.Metrics) != 2 {
		t.Error("WriteJSONL dropped a non-finite metric from the Result itself")
	}
	if r := grid.Result.Records[0]; r.ID != "" || r.Trial != 0 {
		t.Errorf("WriteJSONL stamped the trial's identity into the Result's Record: %+v", r)
	}
}

// TestJSONLReadsBackInAnalyze holds the writer and the offline reader to
// one schema: every dimension a Record line carries comes back as its
// column of the -analyze cell table, and a trial line is read as a
// trial, not a cell.
func TestJSONLReadsBackInAnalyze(t *testing.T) {
	var b bytes.Buffer
	rec := Record{Algorithm: "OLIA", Topology: "wifi3g", Scenario: "handover", Scheduler: "blest", Workload: "web", RecvBuf: 16, Metrics: map[string]float64{"plt_p95_s": 0.5}}
	for _, tr := range []TrialResult{
		{ID: "appgrid", Seed: 42, Scale: 0.05, Result: &Result{Records: []Record{rec}}},
		{ID: "fig3-mesh", Ref: "§2.2 Fig. 3", Seed: 42, Scale: 0.05, WallSec: 1, Result: &Result{Metrics: map[string]float64{"x": 1}}},
	} {
		if err := tr.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
	}
	rep := analyze.NewReport()
	if err := rep.Read(&b); err != nil {
		t.Fatal(err)
	}
	if rep.CellLines != 1 || rep.TrialLines != 1 || rep.Skipped != 0 {
		t.Fatalf("analyze read %d cell, %d trial, %d skipped lines; want 1, 1, 0", rep.CellLines, rep.TrialLines, rep.Skipped)
	}
	cells := rep.Sections()[0]
	want := []string{"appgrid", "OLIA", "wifi3g", "handover", "blest", "web", "16", "plt_p95_s"}
	if got := cells.Rows[0][:len(want)]; !reflect.DeepEqual(got, want) {
		t.Errorf("analyze cell row %v, want %v (header %v)", got, want, cells.Header)
	}
}
