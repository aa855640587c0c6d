// Command mptcp-exp runs the experiments that reproduce every table and
// figure of "Design, implementation and evaluation of congestion control
// for multipath TCP" (Wischik et al., NSDI 2011).
//
// Usage:
//
//	mptcp-exp -list
//	mptcp-exp -run fig8-torus [-scale 1.0] [-seed 42]
//	mptcp-exp -run all [-parallel 8] [-trials 5] [-json]
//	mptcp-exp -run dynamics [-scenario handover] [-json]
//	mptcp-exp -run schedgrid [-sched minrtt+otr+pen] [-json]
//	mptcp-exp -run appgrid [-workload video] [-json]
//	mptcp-exp -run fig15-wireless-compete -trace trace.jsonl
//	mptcp-exp -run dynamics -json -trace trace.jsonl
//	mptcp-exp -run fleet -json
//	mptcp-exp -analyze [-csv out.csv] grid.jsonl trace.jsonl
//	mptcp-exp -analyze -diff A.jsonl B.jsonl
//
// Independent trial cells fan out across -parallel workers (default
// GOMAXPROCS); results are bit-identical for every worker count. With
// -trials N each experiment repeats N times on base seeds seed..seed+N-1.
// With -json each trial emits one machine-readable JSON record per line
// instead of the rendered report; -trace additionally writes the cells'
// protocol traces (internal/trace JSONL, each labelled with its cell's
// axis values) to a file, for every experiment but fleet.
//
// -analyze is the offline half: it reads any mix of the JSONL artifacts
// above (grid cell records, trial records, protocol traces — files can
// be concatenated freely), aggregates them with streaming summaries, and
// prints deterministic fixed-width tables; -csv writes the same rows as
// CSV for plotting. Two runs over the same input render identical bytes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mptcp/internal/cc"
	"mptcp/internal/exp"
	"mptcp/internal/registry"
	"mptcp/internal/scenario"
	"mptcp/internal/sched"
	"mptcp/internal/workload"
)

// options holds mptcp-exp's flag values.
type options struct {
	list, jsonOut, analyze, diff   bool
	run, scenario, sched, workload string
	trace, csv                     string
	seed                           int64
	scale                          float64
	parallel, trials               int
}

// newFlags returns mptcp-exp's flag set, bound to o. README.md's flag
// table is rendered from it.
func newFlags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("mptcp-exp", flag.ExitOnError)
	fs.BoolVar(&o.list, "list", false, "list the experiments, controllers, scenarios, schedulers and workloads, then exit")
	fs.StringVar(&o.run, "run", "", "experiment `id` to run (see -list), or 'all'")
	fs.Int64Var(&o.seed, "seed", 42, "base random seed; equal seeds give bit-identical results")
	fs.Float64Var(&o.scale, "scale", 1.0, "duration/topology scale: 1.0 is paper fidelity, 0.05 a CI smoke")
	fs.IntVar(&o.parallel, "parallel", 0, "max concurrent trial cells (0 = GOMAXPROCS); results are bit-identical for every value")
	fs.IntVar(&o.trials, "trials", 1, "repetitions per experiment, on base seeds seed..seed+trials-1")
	fs.StringVar(&o.scenario, "scenario", "", "restrict the dynamics experiment to one scenario `name` (see -list; case-insensitive); cell seeds match the full grid")
	fs.StringVar(&o.sched, "sched", "", "restrict the schedgrid, appgrid and fleet experiments to one scheduler `spec`, e.g. minrtt+otr+pen (see -list; canonicalised); cell seeds match the full grid, and a spec that is not a column of the grid fails with the column list")
	fs.StringVar(&o.workload, "workload", "", "restrict the appgrid experiment to one application workload `name` (see -list; case-insensitive); cell seeds match the full grid")
	fs.BoolVar(&o.jsonOut, "json", false, "emit one JSONL record per trial, or per cell of a grid experiment, instead of rendered reports")
	fs.StringVar(&o.trace, "trace", "", "write the cells' per-connection protocol traces (JSONL), each labelled with its cell's axis values, to `file`; every experiment but fleet records one; requires one experiment and -trials 1")
	fs.BoolVar(&o.analyze, "analyze", false, "aggregate JSONL artifacts (grid records, trial records, traces) named as positional args ('-' or none = stdin) into summary tables")
	fs.BoolVar(&o.diff, "diff", false, "with -analyze, compare exactly two JSONL files A and B and print per-cell delta tables instead of aggregates")
	fs.StringVar(&o.csv, "csv", "", "with -analyze, also write the summary rows as CSV to `file` ('-' = stdout)")
	return fs
}

// check rejects a flag that only -analyze reads when -analyze is off,
// any other flag set in fs when it is on, and a filter that names
// nothing in its catalogue.
func (o *options) check(fs *flag.FlagSet) error {
	var err error
	if o.analyze {
		fs.Visit(func(f *flag.Flag) {
			if err == nil && f.Name != "analyze" && f.Name != "diff" && f.Name != "csv" {
				err = fmt.Errorf("-%s does not apply to -analyze", f.Name)
			}
		})
		return err
	}
	switch {
	case o.diff:
		return errors.New("-diff requires -analyze")
	case o.csv != "":
		return errors.New("-csv requires -analyze")
	}
	if o.scenario != "" {
		_, err = scenario.Build(o.scenario, 1)
	}
	if err == nil && o.sched != "" {
		_, _, err = sched.Parse(o.sched)
	}
	if err == nil && o.workload != "" {
		_, err = workload.Build(o.workload, 1)
	}
	return err
}

// list writes every catalogue, one registry.Help block per section.
func list(w io.Writer) {
	for i, c := range []struct {
		title string
		infos []registry.Info
	}{
		{"Experiments reproducing Wischik et al., NSDI 2011 (-run <id>):", exp.Infos()},
		{"Congestion controllers (every grid's algorithm axis):", cc.Infos()},
		{"Network-dynamics scenarios (dynamics experiment, -scenario <name>):", scenario.Infos()},
		{"Packet schedulers (schedgrid experiment, -sched <name>[+otr][+pen]):", sched.Infos()},
		{"Application workloads (appgrid experiment, -workload <name>):", workload.Infos()},
	} {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, c.title)
		fmt.Fprint(w, registry.Help(c.infos))
	}
}

func main() {
	var o options
	fs := newFlags(&o)
	fs.Parse(os.Args[1:])
	if err := o.check(fs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if o.analyze {
		run := runAnalyze
		if o.diff {
			run = runAnalyzeDiff
		}
		if err := run(fs.Args(), o.csv); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if o.list || o.run == "" {
		list(os.Stdout)
		return
	}
	var exps []*exp.Experiment
	if o.run == "all" {
		exps = exp.All()
	} else {
		e, ok := exp.Get(o.run)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", o.run)
			os.Exit(1)
		}
		exps = []*exp.Experiment{e}
	}

	cfg := exp.Config{Seed: o.seed, Scale: o.scale, Parallelism: o.parallel, Scenario: o.scenario, Sched: o.sched, Workload: o.workload}
	var traceFile *os.File
	if o.trace != "" {
		// Experiments and trials run concurrently and each flushes its own
		// cells to the trace writer; one traced run keeps the file
		// deterministic.
		if o.trials > 1 || len(exps) > 1 {
			fmt.Fprintln(os.Stderr, "-trace requires one experiment and -trials 1 (concurrent runs would interleave trace output)")
			os.Exit(1)
		}
		var err error
		if traceFile, err = os.Create(o.trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.TraceW = traceFile
	}

	// Stream each trial as soon as it (and its predecessors) finish:
	// long batches produce output while they run, in deterministic
	// (experiment, trial) order.
	var encErr error
	exp.RunBatchStream(cfg, exps, o.trials, func(tr exp.TrialResult) {
		if encErr != nil {
			return
		}
		if o.jsonOut {
			encErr = tr.WriteJSONL(os.Stdout)
			return
		}
		tr.Result.Render(os.Stdout)
		if o.trials > 1 {
			fmt.Printf("\n  (trial %d, seed %d, wall time %.1fs)\n\n", tr.Trial, tr.Seed, tr.WallSec)
		} else {
			fmt.Printf("\n  (wall time %.1fs)\n\n", tr.WallSec)
		}
	})
	if encErr != nil {
		fmt.Fprintln(os.Stderr, encErr)
		os.Exit(1)
	}
	if traceFile != nil {
		st, err := traceFile.Stat()
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err == nil && st.Size() == 0 {
			// Only cells that run in one simulated world trace; an empty
			// file would read as "traced, nothing happened".
			os.Remove(o.trace)
			err = fmt.Errorf("-trace: nothing in this run records a protocol trace (every experiment but fleet does); %s not written", o.trace)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
