// Command bench is the repository's benchmark: five workloads over the
// packet-level simulator and the real-UDP stack, end-to-end metrics
// from untraced repetitions, and per-layer metrics from a separate
// traced pass. See README.md.
//
//	go run . [-seed N] [-reps N] [-quick] [-selfcheck]        every workload
//	go run . --workload NAME --seed N --seconds S --trace 0|1   one workload, one JSON result line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	if len(args) == 2 && args[0] == "-child" {
		var a childArgs
		if err := json.Unmarshal([]byte(args[1]), &a); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 2
		}
		return childMain(a)
	}

	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	seed := fs.Int64("seed", 1, "seed of every generated input: exp.Config.Seed, the chaos.Path seeds and the payload pattern")
	reps := fs.Int("reps", 15, "untraced repetitions per workload")
	quick := fs.Bool("quick", false, "smoke sizes: tiny scales, udp-raw at 2 MiB, udp-lossy skipped")
	check := fs.Bool("selfcheck", false, "run the end-to-end set twice and fail if a median moves by more than its bound")
	outDir := fs.String("out", defaultOutDir(), "directory for spans.jsonl")
	name := fs.String("workload", "", "run only this workload and print one JSON result line (with -seconds and -trace)")
	seconds := fs.Float64("seconds", 24, "with -workload: how long to measure")
	trace := fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = traced repetition and per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seed == 0 {
		fmt.Fprintln(os.Stderr, "bench: -seed 0 is reserved (exp.Config treats it as unset)")
		return 2
	}
	effort := 1.0
	if *quick {
		*reps, effort = 1, 0.02
	}
	o := suiteOpts{seed: *seed, reps: max(*reps, 1), quick: *quick, traced: true, effort: effort, outDir: *outDir, log: os.Stderr}

	switch {
	case *name != "":
		if _, ok := findWorkload(*name); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, workloadNames())
			return 2
		}
		o.only = *name
		if !contract(o, *seconds, *trace != 0, stdout) {
			return 1
		}
		return 0
	case *check:
		if !selfcheck(o, stdout) {
			return 1
		}
		return 0
	}
	rp := runSuite(o)
	rp.print(stdout)
	out, err := json.Marshal(rp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if rp.failed() > 0 {
		return 1
	}
	return 0
}
