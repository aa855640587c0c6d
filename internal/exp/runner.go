// Cell seeds, the batch runner above the experiments and the JSONL
// writer of its trials; the runner and the grid engine both fan out in
// order through inOrder, on parallel. How an experiment decomposes
// into cells, and why its results do not depend on the pool, is in
// grid.go; see DESIGN.md §"Parallel runner" for the full scheme.

package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"runtime"
	"sync"
	"time"

	"mptcp/internal/sim"
)

// CellSeed derives the simulator seed for trial cell idx of a run whose
// base seed is base, via sim.MixSeed: for a fixed base, distinct idx
// always give distinct seeds, so adding cells to an experiment never
// perturbs the seeds of the cells before them; and chaining a second
// derivation below a cell (sim.DomainSeed for sharded engines) never
// overflows, which the old base*1e6+idx stride did for seeds ≥ ~9.2e6.
func CellSeed(base int64, idx int) int64 {
	return sim.MixSeed(base, idx)
}

// TrialResult is one (experiment × trial) cell of a batch run. Seed and
// Scale are the normalised values the trial actually ran with.
type TrialResult struct {
	ID      string
	Ref     string // the experiment's table/figure in the paper
	Trial   int
	Seed    int64
	Scale   float64
	WallSec float64
	Result  *Result
}

// WriteJSONL writes the trial as JSONL to w: one line per Record of a
// grid experiment, or one line of headline metrics, notes and wall time
// for an experiment without cells, each stamped with the trial's
// identity. encoding/json cannot carry NaN or ±Inf, so such a metric is
// left out of its line (an absent field reads as "no observations", as
// -analyze renders it); the Result itself is not modified. This is the
// one encoder of the -json artefacts, and TestGridArtefactsGolden pins
// its output for every grid.
func (tr TrialResult) WriteJSONL(w io.Writer) error {
	recs := tr.Result.Records
	if len(recs) == 0 {
		recs = []Record{{Ref: tr.Ref, WallSec: tr.WallSec, Metrics: tr.Result.Metrics, Notes: tr.Result.Notes}}
	}
	enc := json.NewEncoder(w)
	for _, r := range recs {
		r.ID, r.Trial, r.Seed, r.Scale = tr.ID, tr.Trial, tr.Seed, tr.Scale
		r.Metrics = finite(r.Metrics)
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("encoding %s: %w", tr.ID, err)
		}
	}
	return nil
}

// finite returns m without its NaN and ±Inf entries: m itself when it
// has none, a copy otherwise.
func finite(m map[string]float64) map[string]float64 {
	var out map[string]float64
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if out == nil {
				out = maps.Clone(m)
			}
			delete(out, k)
		}
	}
	if out == nil {
		return m
	}
	return out
}

// RunBatchStream runs every experiment in exps for trials repetitions on
// the worker pool. Trial t of any experiment uses base seed cfg.Seed + t,
// so a batch is reproducible from (Seed, Scale, trials) alone. The outer
// batch pool and each experiment's inner cell pool are both bounded by
// cfg.Parallelism; modest oversubscription of CPU-bound work is left to
// the Go scheduler.
//
// emit is called for every trial in deterministic (experiment, trial)
// order, as soon as the trial and all its predecessors have completed,
// so a long batch produces output while it runs instead of only at the
// end. emit calls are serialised; they run on worker goroutines and
// should not block for long.
func RunBatchStream(cfg Config, exps []*Experiment, trials int, emit func(TrialResult)) {
	cfg = cfg.norm()
	if trials < 1 {
		trials = 1
	}
	results := make([]TrialResult, len(exps)*trials)
	inOrder(len(results), cfg.Parallelism, func(i int) {
		e, t := exps[i/trials], i%trials
		tcfg := cfg
		tcfg.Seed = cfg.Seed + int64(t)
		start := time.Now()
		res := e.Run(tcfg)
		results[i] = TrialResult{
			ID:      e.ID,
			Ref:     e.Ref,
			Trial:   t,
			Seed:    tcfg.Seed,
			Scale:   tcfg.Scale,
			WallSec: time.Since(start).Seconds(),
			Result:  res,
		}
	}, func(i int) {
		emit(results[i])
		results[i] = TrialResult{} // free the emitted Result
	})
}

// inOrder runs fn(i) for every i in [0, n) on up to workers goroutines
// (parallel) and calls emit(i) in index order, each as soon as fn(i)
// and every fn before it have returned. emit calls are serialised and
// run on the worker goroutines.
func inOrder(n, workers int, fn, emit func(i int)) {
	var mu sync.Mutex
	done := make([]bool, n)
	next := 0
	parallel(n, workers, func(i int) {
		fn(i)
		mu.Lock()
		defer mu.Unlock()
		for done[i] = true; next < n && done[next]; next++ {
			emit(next)
		}
	})
}

// parallel runs fn(i) for every i in [0, n) on at most workers
// goroutines (runtime.GOMAXPROCS(0) when workers <= 0) and returns once
// every call has completed. It is the one worker pool of the tree: grid
// cells and batch trials fan out through it, by way of inOrder. fn must
// write its output only to slots indexed by i (never to shared state),
// which keeps parallel race-free and its callers' results independent
// of scheduling order.
func parallel(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
