package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mptcp/internal/cc"
	"mptcp/internal/scenario"
	"mptcp/internal/workload"
)

// contractConfig is the one configuration the engine-contract tests
// below run every experiment at: the base run, on one worker.
var contractConfig = Config{Seed: 5, Scale: 0.02, Parallelism: 1}

// contractRuns are made beside the base runs, at Parallelism 8 and,
// when traced, at 1 too. filter sets a grid axis, in canonical spelling
// or not; field reads the Record field it selects on, which must hold
// want (a nil field keeps every cell). Each run checks parallelism and
// a filter or trace at once. The figures without a run here are pinned
// at GOMAXPROCS workers by TestPaperFiguresGolden.
var contractRuns = []contractRun{
	{id: "fig8-torus"},
	{id: "sec23-wifi3g-model"},
	// Two of the paper's own figures traced: a swept one and a
	// single-world one.
	{id: "fig15-wireless-compete", traced: true},
	{id: "fig17-mobility", traced: true},
	// No axis of the tournament is filterable: every filter is ignored,
	// and its grid is small enough to trace whole.
	{id: "tournament", filter: Config{Scenario: "flap", Sched: "blest", Workload: "video"}, traced: true},
	{id: "dynamics"},
	{"dynamics", Config{Scenario: "flap"}, true, scenarioOf, "flap"},
	{"dynamics", Config{Scenario: "FLAP"}, false, scenarioOf, "flap"},
	{id: "schedgrid"},
	{"schedgrid", Config{Sched: "BLEST"}, false, schedulerOf, "blest"},
	{"schedgrid", Config{Sched: "MinRTT+pen+otr"}, true, schedulerOf, "minrtt+otr+pen"},
	{id: "appgrid"},
	{"appgrid", Config{Workload: "video"}, true, workloadOf, "video"},
	{"appgrid", Config{Workload: "Video"}, false, workloadOf, "video"},
	{"appgrid", Config{Sched: "Bandit"}, false, schedulerOf, "bandit"},
	{"fleet", Config{Sched: "MinRTT"}, false, schedulerOf, "minrtt"},
}

type contractRun struct {
	id     string
	filter Config
	traced bool
	field  func(Record) string
	want   string
}

func scenarioOf(r Record) string  { return r.Scenario }
func schedulerOf(r Record) string { return r.Scheduler }
func workloadOf(r Record) string  { return r.Workload }

func (r contractRun) String() string {
	return fmt.Sprintf("%s {scenario %q sched %q workload %q traced %v}",
		r.id, r.filter.Scenario, r.filter.Sched, r.filter.Workload, r.traced)
}

// contractResult is one run: its result, rendered report, and the
// length and SHA-256 of its trace.
type contractResult struct {
	res      *Result
	render   string
	traceLen int
	trace    [sha256.Size]byte
}

// contractResults maps a configuration {experiment, index into
// contractRuns or -1 for the base run, parallelism} to its run. The
// contract tests below each check one clause on the same runs, so each
// configuration is made once per test process, by the first test that
// reads it.
var contractResults sync.Map // [3]any → func() contractResult

func contractResultOf(id string, run, par int) contractResult {
	f, _ := contractResults.LoadOrStore([3]any{id, run, par}, sync.OnceValue(func() contractResult {
		e, _ := Get(id)
		cfg, tr := contractConfig, new(bytes.Buffer)
		if run >= 0 {
			cfg = contractRuns[run].filter
			cfg.Seed, cfg.Scale = contractConfig.Seed, contractConfig.Scale
			if contractRuns[run].traced {
				cfg.TraceW = tr
			}
		}
		cfg.Parallelism = par
		res := e.Run(cfg)
		var sb strings.Builder
		res.Render(&sb)
		return contractResult{res, sb.String(), tr.Len(), sha256.Sum256(tr.Bytes())}
	}))
	return f.(func() contractResult)()
}

func contractBase(id string) contractResult {
	return contractResultOf(id, -1, contractConfig.Parallelism)
}

// forContractRuns calls check, in a parallel subtest named after the
// experiment, on every run of contractRuns that keep selects.
func forContractRuns(t *testing.T, keep func(contractRun) bool, check func(t *testing.T, run int)) {
	for i, r := range contractRuns {
		if keep(r) && slices.IndexFunc(contractRuns, func(o contractRun) bool { return o.id == r.id && keep(o) }) == i {
			t.Run(r.id, func(t *testing.T) {
				t.Parallel()
				for j, o := range contractRuns {
					if o.id == r.id && keep(o) {
						check(t, j)
					}
				}
			})
		}
	}
}

// reproducesBase checks every run of contractRuns that keep selects,
// at each of its parallelisms, against its experiment's base run. A
// run that keeps every cell must match the base's records, metrics and
// rendered report; a filtered one must select a non-empty subset of
// cells, reproduce their records, and report the base's value of every
// metric it reports.
func reproducesBase(t *testing.T, keep func(contractRun) bool) {
	forContractRuns(t, keep, func(t *testing.T, i int) {
		r, base := contractRuns[i], contractBase(contractRuns[i].id)
		var want []Record
		for _, rec := range base.res.Records {
			if r.field == nil || r.field(rec) == r.want {
				want = append(want, rec)
			}
		}
		pars := []int{8}
		if r.traced {
			pars = []int{1, 8}
		}
		for _, par := range pars {
			got := contractResultOf(r.id, i, par)
			if (r.field != nil && len(got.res.Records) == 0) || !reflect.DeepEqual(got.res.Records, want) {
				t.Errorf("%v at parallelism %d: %d records diverge from the base run's %d selected cells",
					r, par, len(got.res.Records), len(want))
			}
			if r.field == nil && (!reflect.DeepEqual(got.res.Metrics, base.res.Metrics) || got.render != base.render) {
				t.Errorf("%v at parallelism %d: metrics or rendered report diverge from the base run:\n  base: %v\n  got:  %v",
					r, par, base.res.Metrics, got.res.Metrics)
			}
			for k, v := range got.res.Metrics {
				if b, ok := base.res.Metrics[k]; !ok || b != v {
					t.Errorf("%v at parallelism %d: metric %s = %v, the base run has %v", r, par, k, v, b)
				}
			}
		}
	})
}

// TestAllExperimentsSmoke runs every registered experiment at
// contractConfig: it must complete, render with its ID, and report
// finite, non-negative metrics.
func TestAllExperimentsSmoke(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && (strings.HasPrefix(e.ID, "table-fattree") ||
				strings.HasPrefix(e.ID, "table-bcube") ||
				strings.HasPrefix(e.ID, "fig1")) {
				t.Skip("heavy experiment skipped in -short")
			}
			t.Parallel()
			base := contractBase(e.ID)
			if base.res.ID != e.ID {
				t.Errorf("result ID %q != experiment ID %q", base.res.ID, e.ID)
			}
			if len(base.res.Tables) == 0 && len(base.res.Figures) == 0 {
				t.Error("experiment produced no tables or figures")
			}
			for k, v := range base.res.Metrics {
				if v != v || v < 0 { // NaN or negative
					t.Errorf("metric %s = %v", k, v)
				}
			}
			if !strings.Contains(base.render, e.ID) {
				t.Error("render omitted the experiment ID")
			}
		})
	}
}

// TestDeterminismAcrossParallelism is the regression test for the
// parallel runner's core guarantee: every run of contractRuns
// reproduces its experiment's base run on eight workers, per-cell
// Records included, because every cell's randomness derives from
// CellSeed(base, idx) rather than from scheduling order. Each run
// follows the base run in one process, so hidden shared state shows.
func TestDeterminismAcrossParallelism(t *testing.T) {
	reproducesBase(t, func(contractRun) bool { return true })
}

// TestGridFilterKeepsSeeds pins the filter contract for the grids: a
// filtered run selects a non-empty subset of cells and reproduces those
// cells' records bit for bit, because cell seeds derive from full-grid
// indices rather than filtered positions; and the filter value is
// canonicalised before it is matched.
func TestGridFilterKeepsSeeds(t *testing.T) {
	reproducesBase(t, func(r contractRun) bool { return r.field != nil })
}

// TestTraceDeterministicAcrossParallelism extends the runner's core
// guarantee to the trace artefact: a grid's concatenated trace is
// byte-identical whether cells run on one worker or eight, because
// each cell records into a private tracer and the grid engine flushes
// them sequentially in cell order.
func TestTraceDeterministicAcrossParallelism(t *testing.T) {
	forContractRuns(t, func(r contractRun) bool { return r.traced }, func(t *testing.T, i int) {
		serial, parallel := contractResultOf(contractRuns[i].id, i, 1), contractResultOf(contractRuns[i].id, i, 8)
		if serial.traceLen == 0 || serial.trace != parallel.trace {
			t.Errorf("%v: trace bytes empty or diverging across parallelism: %d vs %d bytes",
				contractRuns[i], serial.traceLen, parallel.traceLen)
		}
	})
}

// TestTracingDoesNotPerturbResults: enabling tracing must leave the
// simulation bit-identical, because the tracer only observes, never
// draws from the world rng or changes event timing. Every traced run,
// on one worker and on eight, must reproduce the untraced base run.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	reproducesBase(t, func(r contractRun) bool { return r.traced })
}

// TestTournamentGridComplete: the base run has one record per
// (algorithm × topology) cell, with finite metrics.
func TestTournamentGridComplete(t *testing.T) {
	res := contractBase("tournament").res
	algs := cc.Names()
	topos := []string{"torus", "dualhomed", "fattree", "wifi3g"}
	if want := len(algs) * len(topos); len(res.Records) != want {
		t.Fatalf("%d records, want %d (one per algorithm × topology cell)", len(res.Records), want)
	}
	seen := map[string]bool{}
	for _, r := range res.Records {
		key := r.Algorithm + "/" + r.Topology
		if seen[key] {
			t.Errorf("duplicate cell %s", key)
		}
		seen[key] = true
		checkCellMetrics(t, key, r)
	}
	for _, a := range algs {
		for _, tp := range topos {
			if !seen[a+"/"+tp] {
				t.Errorf("missing cell %s/%s", a, tp)
			}
		}
	}
}

// TestDynamicsGridComplete: the base run has one record per (algorithm
// × topology × scenario) cell, with finite metrics; only churn cells
// spawn flows, and every one of them does.
func TestDynamicsGridComplete(t *testing.T) {
	res := contractBase("dynamics").res
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
		checkCellMetrics(t, key, r)
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

// checkCellMetrics: a cell's metrics are finite and non-negative, and
// its Jain index is at most 1.
func checkCellMetrics(t *testing.T, key string, r Record) {
	t.Helper()
	for k, v := range r.Metrics {
		if v != v || math.IsInf(v, 0) || v < 0 {
			t.Errorf("cell %s metric %s = %v", key, k, v)
		}
	}
	if r.Metrics["jain"] > 1+1e-9 {
		t.Errorf("cell %s Jain index %v > 1", key, r.Metrics["jain"])
	}
}

// TestSchedGridComplete: the base run has one Record per (scheduler
// spec × algorithm × topology × recvbuf) cell, in cell order, with
// countermeasure activity only where it can fire, and some of it.
func TestSchedGridComplete(t *testing.T) {
	res := contractBase("schedgrid").res
	specs, algs, bufs := schedSpecs(), cc.Names(), schedBufs
	want := len(specs) * len(algs) * 3 * len(bufs)
	if len(res.Records) != want {
		t.Fatalf("got %d records, want %d", len(res.Records), want)
	}
	idx := 0
	seenCM := false
	for _, spec := range specs {
		for _, alg := range algs {
			for _, tp := range []string{"torus", "dualhomed", "wifi3g"} {
				for _, buf := range bufs {
					r := res.Records[idx]
					idx++
					if r.Scheduler != spec || r.Algorithm != alg || r.Topology != tp || r.RecvBuf != buf {
						t.Fatalf("record %d = {%s %s %s %d}, want {%s %s %s %d}",
							idx-1, r.Scheduler, r.Algorithm, r.Topology, r.RecvBuf, spec, alg, tp, buf)
					}
					for _, k := range []string{"mbps", "jain", "opp_retx", "penalties"} {
						if _, ok := r.Metrics[k]; !ok {
							t.Errorf("record %d misses metric %s", idx-1, k)
						}
					}
					if spec == "minrtt+otr+pen" && (r.Metrics["opp_retx"] > 0 || r.Metrics["penalties"] > 0) {
						seenCM = true
					}
					if spec == "minrtt" && (r.Metrics["opp_retx"] > 0 || r.Metrics["penalties"] > 0) {
						t.Errorf("plain minrtt cell reports countermeasure activity: %+v", r)
					}
				}
			}
		}
	}
	if !seenCM {
		t.Error("no countermeasure cell reported any opp_retx/penalties activity")
	}
}

// TestAppGridCompletenessAndOrder: the base run has one record per
// (workload × scheduler × algorithm × topology) in cell order, each
// with its workload and the common accounting metrics.
func TestAppGridCompletenessAndOrder(t *testing.T) {
	res := contractBase("appgrid").res
	wls, specs, algs, topos := workload.Names(), appSchedSpecs(), appAlgs(), appTopos
	want := len(wls) * len(specs) * len(algs) * len(topos)
	if len(res.Records) != want {
		t.Fatalf("%d records, want %d", len(res.Records), want)
	}
	i := 0
	for _, wl := range wls {
		for _, spec := range specs {
			for _, alg := range algs {
				for _, tp := range topos {
					r := res.Records[i]
					i++
					if r.Workload != wl || r.Scheduler != spec || r.Algorithm != alg || r.Topology != tp {
						t.Fatalf("record %d is %s/%s/%s/%s, want %s/%s/%s/%s",
							i-1, r.Workload, r.Scheduler, r.Algorithm, r.Topology, wl, spec, alg, tp)
					}
					if r.Scenario != appScenario[tp] || r.RecvBuf != appRecvBuf {
						t.Errorf("record %d: scenario %q recvbuf %d", i-1, r.Scenario, r.RecvBuf)
					}
					for _, m := range []string{"issued", "completed", "incomplete", "goodput_mbps"} {
						if _, ok := r.Metrics[m]; !ok {
							t.Errorf("record %d (%s/%s) lacks %s", i-1, wl, tp, m)
						}
					}
				}
			}
		}
	}
}
