// Cell seeds and the batch runner above the experiments; both fan out on
// sim.Parallel. How an experiment decomposes into cells, and why its
// results do not depend on the pool, is in grid.go; see DESIGN.md
// §"Parallel runner" for the full scheme.

package exp

import (
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
	n := len(exps) * trials
	results := make([]TrialResult, n)
	ready := make([]bool, n)
	var mu sync.Mutex
	next := 0
	sim.Parallel(n, cfg.Parallelism, func(i int) {
		e, t := exps[i/trials], i%trials
		tcfg := cfg
		tcfg.Seed = cfg.Seed + int64(t)
		start := time.Now()
		res := e.Run(tcfg)
		tr := TrialResult{
			ID:      e.ID,
			Ref:     e.Ref,
			Trial:   t,
			Seed:    tcfg.Seed,
			Scale:   tcfg.Scale,
			WallSec: time.Since(start).Seconds(),
			Result:  res,
		}
		mu.Lock()
		defer mu.Unlock()
		results[i], ready[i] = tr, true
		for next < n && ready[next] {
			emit(results[next])
			results[next] = TrialResult{} // free the emitted Result
			next++
		}
	})
}
