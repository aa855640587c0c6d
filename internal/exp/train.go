// Offline training of the learned "bandit" scheduler.
//
// TrainSched replays the schedgrid corpus — the scheduler grid's
// topology columns crossed with the blocking-prone receive buffers,
// plus scenario-driven wifi3g episodes — with an ε-greedy exploring
// bandit (sched.NewBanditExplorer), rewards each episode by its
// multipath goodput normalized to the cell's minrtt baseline, and folds
// the rewards into the policy table with sched.Model.Update. Everything
// is derived from TrainConfig.Seed: episode worlds and exploration rngs
// use disjoint sim.MixSeed index ranges, rounds snapshot the policy so
// a round's episodes can run in parallel, and updates apply in fixed
// cell order — so two same-config runs (at any Parallelism) produce
// byte-identical serialized models. cmd/mptcp-exp -train-sched drives
// this and writes Model.Marshal to disk; the checked-in model embedded
// behind sched.New("bandit") is produced by the pinned command in
// DESIGN.md §14.

package exp

import (
	"fmt"
	"io"
	"math/rand"

	"mptcp/internal/sched"
	"mptcp/internal/sim"
)

// trainCorpusName names the corpus in the model's provenance header.
const trainCorpusName = "schedgrid-v1"

// TrainConfig controls one offline training run.
type TrainConfig struct {
	// Seed derives every episode's world seed and exploration rng;
	// equal configs give byte-identical models. Zero means 1.
	Seed int64
	// Scale is the per-episode duration scale (schedgrid cell
	// durations × Scale). Zero means 0.2 — long enough for blocking
	// dynamics, short enough that a full run stays in minutes.
	Scale float64
	// Rounds is the number of passes over the corpus; each round runs
	// one ε-greedy episode per corpus cell with ε annealed toward
	// greedy. Zero means 40.
	Rounds int
	// Parallelism bounds concurrent episodes within a round (rounds
	// are sequential: each updates the policy the next explores from).
	// Zero means GOMAXPROCS; results are identical for every value.
	Parallelism int
}

func (t TrainConfig) norm() TrainConfig {
	if t.Seed == 0 {
		t.Seed = 1
	}
	if t.Scale <= 0 {
		t.Scale = 0.2
	}
	if t.Rounds <= 0 {
		t.Rounds = 40
	}
	return t
}

// trainCell is one corpus cell: a named world (scene × optional
// scenario script × receive buffer) an episode runs the exploring
// scheduler in. The congestion controller is the paper's MPTCP
// throughout — the policy's features are controller-agnostic (window
// headroom, not window dynamics), and the grid's other controllers ride
// on the same table.
type trainCell struct {
	name, scene, scen string
	buf               int64
}

// trainCorpus is the episode corpus: every schedgrid topology column
// under the two blocking-prone buffers (16 forces head-of-line
// blocking, 64 binds mildly), plus dynamic wifi3g episodes under the
// handover and flap scripts so the policy sees paths dying and
// recovering, not just steady-state heterogeneity.
var trainCorpus = []trainCell{
	{"torus/buf16", "torus", "", 16},
	{"torus/buf64", "torus", "", 64},
	{"dualhomed/buf16", "dualhomed", "", 16},
	{"dualhomed/buf64", "dualhomed", "", 64},
	{"wifi3g/buf16", "wifi3g", "", 16},
	{"wifi3g/buf64", "wifi3g", "", 64},
	{"wifi3g+handover/buf16", "wifi3g", "handover", 16},
	{"wifi3g+flap/buf16", "wifi3g", "flap", 16},
}

// Disjoint sim.MixSeed index ranges: episodes use [0, 2·rounds·cells),
// baselines and evaluations their own blocks far above.
const (
	trainBaseIdx = 1_000_000
	trainEvalIdx = 2_000_000
)

// banditSpec wraps one shared Bandit instance (frozen or exploring) as
// a schedSpec column. Every connection of the episode's single-threaded
// world shares the instance: for a frozen bandit that is trivially safe
// (pure reads), for an explorer it is deterministic because all Picks
// interleave on the simulator's event order.
func banditSpec(b *sched.Bandit) schedSpec {
	return schedSpec{spec: "bandit", mk: func() sched.Scheduler { return b }}
}

// TrainEval is one corpus cell's post-training comparison: the frozen
// greedy policy against the two classical baselines the ROADMAP names,
// on a held-out evaluation seed.
type TrainEval struct {
	Cell                  string
	Bandit, MinRTT, Blest float64 // multipath Mb/s
}

// TrainReport summarizes a training run for the CLI. It contains no
// wall-clock or environment data: two same-config runs render
// identical bytes.
type TrainReport struct {
	Corpus   string
	Seed     int64
	Scale    float64
	Rounds   int
	Episodes int64
	Eval     []TrainEval
}

// Render writes the deterministic human-readable training report.
func (r *TrainReport) Render(w io.Writer) {
	fmt.Fprintf(w, "== train-sched ==\ncorpus %s seed %d scale %g rounds %d episodes %d\n",
		r.Corpus, r.Seed, r.Scale, r.Rounds, r.Episodes)
	fmt.Fprintf(w, "\n%-24s %10s %10s %10s\n", "cell (Mb/s, eval seed)", "bandit", "minrtt", "blest")
	for _, e := range r.Eval {
		fmt.Fprintf(w, "%-24s %10.3f %10.3f %10.3f\n", e.Cell, e.Bandit, e.MinRTT, e.Blest)
	}
}

// TrainSched trains the bandit policy over the corpus and returns the
// frozen model plus the evaluation report. Deterministic: equal
// TrainConfigs yield byte-identical Model.Marshal output at any
// Parallelism.
func TrainSched(cfg TrainConfig) (*sched.Model, *TrainReport) {
	cfg = cfg.norm()
	corpus := trainCorpus

	episode := func(ci int, seed int64, spec schedSpec) schedOut {
		tc := corpus[ci]
		return schedCell(newWorld(seed), Config{Scale: cfg.Scale}, tc.scene, tc.scen, spec, "MPTCP", tc.buf)
	}

	// Per-cell minrtt baselines normalize rewards: Mb/s differs by an
	// order of magnitude across topologies, and the policy must not
	// learn "torus episodes are worth more".
	base := make([]float64, len(corpus))
	sim.Parallel(len(corpus), cfg.Parallelism, func(ci int) {
		out := episode(ci, CellSeed(cfg.Seed, trainBaseIdx+ci), parseSchedSpec("minrtt"))
		base[ci] = out.mbps
		if base[ci] < 0.05 {
			base[ci] = 0.05
		}
	})

	model := &sched.Model{Corpus: trainCorpusName, Seed: cfg.Seed}
	for r := 0; r < cfg.Rounds; r++ {
		// Snapshot the policy: the round's episodes all explore from the
		// same frozen view, so they are order-independent and can fan
		// out; updates apply afterwards in cell order.
		frozen := model.Clone()
		eps := 0.5*(1-float64(r)/float64(cfg.Rounds)) + 0.05
		type epOut struct {
			ep     *sched.Episode
			reward float64
		}
		outs := make([]epOut, len(corpus))
		sim.Parallel(len(corpus), cfg.Parallelism, func(ci int) {
			ei := r*len(corpus) + ci
			ep := &sched.Episode{}
			rng := rand.New(rand.NewSource(sim.MixSeed(cfg.Seed, 2*ei+1)))
			expl := sched.NewBanditExplorer(frozen, rng, eps, ep)
			out := episode(ci, CellSeed(cfg.Seed, 2*ei), banditSpec(expl))
			outs[ci] = epOut{ep: ep, reward: out.mbps / base[ci]}
		})
		for ci := range outs {
			model.Update(outs[ci].ep, outs[ci].reward)
		}
	}

	// Held-out evaluation: frozen greedy policy vs minrtt and blest on
	// per-cell eval seeds none of the episodes used.
	report := &TrainReport{
		Corpus:   model.Corpus,
		Seed:     cfg.Seed,
		Scale:    cfg.Scale,
		Rounds:   cfg.Rounds,
		Episodes: model.Episodes,
		Eval:     make([]TrainEval, len(corpus)),
	}
	sim.Parallel(len(corpus), cfg.Parallelism, func(ci int) {
		seed := CellSeed(cfg.Seed, trainEvalIdx+ci)
		report.Eval[ci] = TrainEval{
			Cell:   corpus[ci].name,
			Bandit: episode(ci, seed, banditSpec(sched.NewBanditFrom(model))).mbps,
			MinRTT: episode(ci, seed, parseSchedSpec("minrtt")).mbps,
			Blest:  episode(ci, seed, parseSchedSpec("blest")).mbps,
		}
	})
	return model, report
}
