// Command mptcp-exp runs the experiments that reproduce every table and
// figure of "Design, implementation and evaluation of congestion control
// for multipath TCP" (Wischik et al., NSDI 2011).
//
// Usage:
//
//	mptcp-exp -list
//	mptcp-exp -run fig8-torus [-scale 1.0] [-seed 42]
//	mptcp-exp -run all [-parallel 8] [-trials 5] [-json]
//	mptcp-exp -exp dynamics [-scenario handover] [-json]
//	mptcp-exp -exp schedgrid [-sched minrtt+otr+pen] [-json]
//	mptcp-exp -exp appgrid [-workload video] [-json]
//	mptcp-exp -run fig15-wireless-compete -trace trace.jsonl
//	mptcp-exp -exp dynamics -json -trace trace.jsonl
//	mptcp-exp -exp fleet -json
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
	"flag"
	"fmt"
	"os"

	"mptcp/internal/exp"
	"mptcp/internal/scenario"
	"mptcp/internal/sched"
	"mptcp/internal/workload"
)

func main() {
	list := flag.Bool("list", false, "list experiments and scenarios")
	id := flag.String("run", "", "experiment ID to run (or 'all')")
	expID := flag.String("exp", "", "alias of -run")
	seed := flag.Int64("seed", 42, "base random seed")
	scale := flag.Float64("scale", 1.0, "duration/topology scale (1.0 = paper fidelity)")
	parallel := flag.Int("parallel", 0, "max concurrent trial cells (0 = GOMAXPROCS)")
	trials := flag.Int("trials", 1, "repetitions per experiment, base seeds seed..seed+trials-1")
	scenarioID := flag.String("scenario", "", "restrict the dynamics experiment to one scenario (see -list; names are case-insensitive); cell seeds match the full grid")
	schedSpec := flag.String("sched", "", "restrict the schedgrid, appgrid and fleet experiments to one scheduler spec, e.g. minrtt+otr+pen (see -list); cell seeds match the full grid")
	workloadID := flag.String("workload", "", "restrict the appgrid experiment to one application workload (see -list; names are case-insensitive); cell seeds match the full grid")
	jsonOut := flag.Bool("json", false, "emit one JSON record per trial instead of rendered reports")
	traceOut := flag.String("trace", "", "write the cells' per-connection protocol traces (JSONL) to FILE; every experiment but fleet records one")
	analyze := flag.Bool("analyze", false, "aggregate JSONL artifacts (grid records, trial records, traces) named as positional args ('-' or none = stdin) into summary tables")
	diff := flag.Bool("diff", false, "with -analyze, compare exactly two JSONL files A and B and print per-cell delta tables instead of aggregates")
	csvOut := flag.String("csv", "", "with -analyze, also write the summary rows as CSV to FILE ('-' = stdout)")
	flag.Parse()
	if *expID != "" {
		id = expID
	}

	if *analyze {
		run := runAnalyze
		if *diff {
			run = runAnalyzeDiff
		}
		if err := run(flag.Args(), *csvOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *diff {
		fmt.Fprintln(os.Stderr, "-diff requires -analyze")
		os.Exit(1)
	}
	if *scenarioID != "" {
		if _, err := scenario.Build(*scenarioID, 1); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *schedSpec != "" {
		if _, _, err := sched.Parse(*schedSpec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *workloadID != "" {
		if _, err := workload.Build(*workloadID, 1); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *list || *id == "" {
		fmt.Println("Experiments reproducing Wischik et al., NSDI 2011:")
		for _, e := range exp.All() {
			fmt.Printf("  %-24s %-18s %s\n", e.ID, e.Ref, e.Desc)
		}
		fmt.Println("\nNetwork-dynamics scenarios (dynamics experiment, -scenario <name>):")
		for _, s := range scenario.Infos() {
			fmt.Printf("  %-24s %s\n", s.Name, s.Desc)
		}
		fmt.Println("\nPacket schedulers (schedgrid experiment, -sched <name>[+otr][+pen]):")
		fmt.Print(sched.Help())
		fmt.Println("\nApplication workloads (appgrid experiment, -workload <name>):")
		for _, w := range workload.Infos() {
			fmt.Printf("  %-24s %s\n", w.Name, w.Desc)
		}
		return
	}
	var exps []*exp.Experiment
	if *id == "all" {
		exps = exp.All()
	} else {
		e, ok := exp.Get(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *id)
			os.Exit(1)
		}
		exps = []*exp.Experiment{e}
	}

	cfg := exp.Config{Seed: *seed, Scale: *scale, Parallelism: *parallel, Scenario: *scenarioID, Sched: *schedSpec, Workload: *workloadID}
	var traceFile *os.File
	if *traceOut != "" {
		// Experiments and trials run concurrently and each flushes its own
		// cells to the trace writer; one traced run keeps the file
		// deterministic.
		if *trials > 1 || len(exps) > 1 {
			fmt.Fprintln(os.Stderr, "-trace requires one experiment and -trials 1 (concurrent runs would interleave trace output)")
			os.Exit(1)
		}
		var err error
		if traceFile, err = os.Create(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.TraceW = traceFile
	}

	// Stream each trial as soon as it (and its predecessors) finish:
	// long batches produce output while they run, in deterministic
	// (experiment, trial) order.
	var encErr error
	exp.RunBatchStream(cfg, exps, *trials, func(tr exp.TrialResult) {
		if encErr != nil {
			return
		}
		if *jsonOut {
			encErr = tr.WriteJSONL(os.Stdout)
			return
		}
		tr.Result.Render(os.Stdout)
		if *trials > 1 {
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
			os.Remove(*traceOut)
			err = fmt.Errorf("-trace: nothing in this run records a protocol trace (every experiment but fleet does); %s not written", *traceOut)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
