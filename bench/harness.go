package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// childTimeout bounds one child process. A UDP transfer gives up after
// 60 s by itself; this catches a simulator run that never returns.
const childTimeout = 150 * time.Second

// digestsJSON holds, per seed and sim workload, the digest this
// benchmark's own baseline run produced. It is compared for information
// only (model_changed): a later change may alter behaviour on purpose,
// but may not edit this directory.
//
//go:embed digests.json
var digestsJSON []byte

// spawn runs one repetition in a fresh process, so that its peak RSS is
// its own and no heap carries over between workloads.
func spawn(a childArgs) repResult {
	failed := func(format string, args ...any) repResult {
		r := repResult{Workload: a.Workload, Rep: a.Rep, Ops: 1}
		r.fail(format, args...)
		return r
	}
	exe, err := os.Executable()
	if err != nil {
		return failed("locating the benchmark binary: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	a.T0 = time.Now().UnixNano()
	spec, err := json.Marshal(a)
	if err != nil {
		return failed("encoding child arguments: %v", err)
	}
	cmd := exec.CommandContext(ctx, exe, "-child", string(spec))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if ctx.Err() != nil {
		return failed("child exceeded %v and was killed", childTimeout)
	}
	if err != nil {
		return failed("child: %v", err)
	}
	var r repResult
	if err := json.Unmarshal(lastLine(out), &r); err != nil {
		return failed("child output: %v", err)
	}
	return r
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// envInfo records where the numbers were taken.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Quick      bool   `json:"quick"`
	Network    string `json:"network"`
}

func environment(seed int64, quick bool) envInfo {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				commit = s.Value[:12]
			}
		}
	}
	return envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: seed, Quick: quick,
		Network: "udp workloads cross the host loopback interface (127.0.0.1), not a real link",
	}
}

// workloadReport aggregates the repetitions of one workload.
type workloadReport struct {
	Name        string          `json:"name"`
	Model       string          `json:"model_result_is"`
	Metrics     map[string]dist `json:"metrics"`
	Extra       map[string]dist `json:"extra,omitempty"`
	Ops         int             `json:"ops"`
	Failed      int             `json:"failed"`
	FailedShare float64         `json:"failed_share"`
	Reasons     []string        `json:"reasons,omitempty"`
	Digest      string          `json:"digest,omitempty"`
	// ModelChanged compares Digest with digests.json; nil when that file
	// has no entry for this seed and workload (or in -quick mode).
	ModelChanged     *bool    `json:"model_changed"`
	TraceOverheadPct *float64 `json:"trace_overhead_pct,omitempty"`
}

func (r repResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s": r.SetupS, "wall_s": r.WallS, "cpu_s": r.CPUS,
		"allocs_k": r.AllocsK, "peak_rss_mb": r.PeakRSSMB, "model_result": r.Model,
	}
}

// aggregate folds the untraced repetitions of one workload. Sim
// repetitions of one seed must agree bit for bit; a disagreement is a
// failed operation.
func aggregate(w workload, seed int64, quick bool, reps []repResult) workloadReport {
	rep := workloadReport{Name: w.Name, Model: w.ModelDesc, Metrics: map[string]dist{}}
	vals, extra := map[string][]float64{}, map[string][]float64{}
	for _, r := range reps {
		rep.Ops += r.Ops
		rep.Failed += r.Failed
		rep.Reasons = append(rep.Reasons, r.Reasons...)
		if r.Failed > 0 && r.WallS == 0 {
			continue // never reached the timed region: nothing to average
		}
		for k, v := range r.endToEnd() {
			vals[k] = append(vals[k], v)
		}
		for k, v := range r.Extra {
			extra[k] = append(extra[k], v)
		}
		switch {
		case rep.Digest == "":
			rep.Digest = r.Digest
		case r.Digest != rep.Digest:
			rep.Failed++
			rep.Reasons = append(rep.Reasons, fmt.Sprintf("rep %d: digest %.12s differs from %.12s at the same seed", r.Rep, r.Digest, rep.Digest))
		}
	}
	for _, m := range endToEnd {
		d := summarise(vals[m.Name])
		if isTime(m.Name) && !(w.Lossy && m.Name == "wall_s") {
			d = d.byMin()
		}
		rep.Metrics[m.Name] = d
	}
	if len(extra) > 0 {
		rep.Extra = map[string]dist{}
		for k, v := range extra {
			rep.Extra[k] = summarise(v)
		}
	}
	if rep.Ops > 0 {
		rep.FailedShare = float64(rep.Failed) / float64(rep.Ops)
	}
	if rep.Digest != "" && !quick {
		var base map[string]map[string]string
		if err := json.Unmarshal(digestsJSON, &base); err == nil {
			if want, ok := base[strconv.FormatInt(seed, 10)][w.Name]; ok {
				changed := want != rep.Digest
				rep.ModelChanged = &changed
			}
		}
	}
	return rep
}

// report is everything one invocation measured.
type report struct {
	Env       envInfo            `json:"env"`
	Reps      int                `json:"reps"`
	Workloads []workloadReport   `json:"workloads"`
	Skipped   []string           `json:"skipped,omitempty"` // workloads with no -quick size
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Missing   []string           `json:"per_layer_missing,omitempty"`
	MicroOps  int                `json:"per_layer_ops,omitempty"`
	Spans     string             `json:"spans_file,omitempty"`
}

func (rp *report) failed() int {
	n := len(rp.Missing)
	for _, w := range rp.Workloads {
		n += w.Failed
	}
	return n
}

type suiteOpts struct {
	seed   int64
	reps   int
	quick  bool
	traced bool // also run the traced repetitions and the per-layer pass
	effort float64
	outDir string
	only   string // "" = every workload
	// budget, when > 0, replaces reps: repeat until the next repetition
	// would overrun it.
	budget time.Duration
	log    io.Writer
}

func (o suiteOpts) selected() (run []workload, skipped []string) {
	for _, w := range workloads {
		switch {
		case o.only != "" && w.Name != o.only:
		case o.quick && w.UDP && w.QuickBytes == 0:
			skipped = append(skipped, w.Name)
		default:
			run = append(run, w)
		}
	}
	return run, skipped
}

// runSuite runs the selected workloads. Repetitions are interleaved
// round-robin across workloads, so a noisy minute on a shared machine
// hits all of them and not one.
func runSuite(o suiteOpts) report {
	ws, skipped := o.selected()
	rp := report{Env: environment(o.seed, o.quick), Skipped: skipped}
	reps := make([][]repResult, len(ws))
	start := time.Now()
	var roundDur []float64
	for rep := 0; ; rep++ {
		if o.budget > 0 {
			if rep > 0 && time.Since(start)+time.Duration(summarise(roundDur).Median*float64(time.Second)) > o.budget {
				break
			}
		} else if rep >= o.reps {
			break
		}
		t0 := time.Now()
		for i, w := range ws {
			r := spawn(childArgs{Workload: w.Name, Seed: o.seed, Rep: rep, Quick: o.quick})
			fmt.Fprintf(o.log, "  %-12s rep %d: wall %.3fs setup %.3fs failed %d/%d\n", w.Name, rep, r.WallS, r.SetupS, r.Failed, r.Ops)
			reps[i] = append(reps[i], r)
		}
		roundDur = append(roundDur, time.Since(t0).Seconds())
		rp.Reps = rep + 1
	}
	for i, w := range ws {
		rp.Workloads = append(rp.Workloads, aggregate(w, o.seed, o.quick, reps[i]))
	}
	if !o.traced {
		return rp
	}

	// The traced pass: one more repetition per workload with the span
	// recorder on, then the per-layer drivers. End-to-end numbers above
	// never include it.
	var spans []span
	for i, w := range ws {
		r := spawn(childArgs{Workload: w.Name, Seed: o.seed, Rep: rp.Reps, Quick: o.quick, Traced: true})
		spans = append(spans, r.Spans...)
		wr := &rp.Workloads[i]
		wr.Ops += r.Ops
		wr.Failed += r.Failed
		wr.Reasons = append(wr.Reasons, r.Reasons...)
		if base := wr.Metrics["wall_s"].Median; r.Failed == 0 && base > 0 { // one repetition against the typical one
			pct := 100 * (r.WallS - base) / base
			wr.TraceOverheadPct = &pct
		}
	}
	m := spawn(childArgs{Workload: "micro", Seed: o.seed, Quick: o.quick, Traced: true, Effort: o.effort})
	spans = append(spans, m.Spans...)
	rp.PerLayer = m.Layers
	if rp.PerLayer == nil {
		rp.PerLayer = map[string]float64{}
	}
	var overheads []float64
	for _, wr := range rp.Workloads {
		if wr.TraceOverheadPct != nil {
			overheads = append(overheads, *wr.TraceOverheadPct)
		}
	}
	if len(overheads) > 0 {
		// One workload in a contract run; the median over workloads in a
		// suite run, where each workload's own figure is printed with it.
		rp.PerLayer["trace_overhead_pct"] = summarise(overheads).Median
	}
	rp.MicroOps = m.Ops
	for _, reason := range m.Reasons {
		rp.Missing = append(rp.Missing, "per-layer pass: "+reason)
	}
	for _, spec := range perLayer {
		if _, ok := rp.PerLayer[spec.Name]; !ok { // the child drops what it could not measure
			rp.Missing = append(rp.Missing, spec.Name)
		}
	}
	if path, err := writeSpans(o.outDir, spans); err != nil {
		rp.Missing = append(rp.Missing, "spans: "+err.Error())
	} else {
		rp.Spans = path
	}
	return rp
}

// print writes the human-readable tables: every metric by name with its
// unit, reported value, median, quartiles and n.
func (rp *report) print(w io.Writer) {
	e := rp.Env
	fmt.Fprintf(w, "\nmptcp bench: seed %d, %d reps, nproc %d, GOMAXPROCS %d, %s, commit %s\n%s\n",
		e.Seed, rp.Reps, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Network)
	fmt.Fprintf(w, "\n%-12s %-14s %-7s %12s %12s %12s %12s %3s %8s\n", "workload", "metric", "unit", "value", "median", "q1", "q3", "n", "iqr/med")
	row := func(wl, name, unit string, d dist) {
		fmt.Fprintf(w, "%-12s %-14s %-7s %12.6g %12.6g %12.6g %12.6g %3d %7.2f%%\n", wl, name, unit, d.Value, d.Median, d.Q1, d.Q3, d.N, 100*d.spread())
	}
	for _, wr := range rp.Workloads {
		for _, m := range endToEnd {
			row(wr.Name, m.Name, m.Unit, wr.Metrics[m.Name])
		}
		fmt.Fprintf(w, "%-12s %-14s %-7s %12.6g   (%d of %d ops)\n", wr.Name, "failed_share", "share", wr.FailedShare, wr.Failed, wr.Ops)
		for _, k := range []string{"goodput_mbps", "seg_allocs", "retx_ratio", "reinject_ratio", "dup_data_ratio", "rcvbuf_bytes"} {
			if d, ok := wr.Extra[k]; ok {
				row(wr.Name, k, "-", d)
			}
		}
		fmt.Fprintf(w, "%-12s model_result = %s\n", wr.Name, wr.Model)
		if wr.Digest != "" {
			changed := "no baseline for this seed"
			if wr.ModelChanged != nil {
				changed = strconv.FormatBool(*wr.ModelChanged)
			}
			fmt.Fprintf(w, "%-12s digest %.16s  model_changed: %s\n", wr.Name, wr.Digest, changed)
		}
		if wr.TraceOverheadPct != nil {
			fmt.Fprintf(w, "%-12s trace_overhead_pct %+.2f%% (traced repetition against the untraced median)\n", wr.Name, *wr.TraceOverheadPct)
		}
		for _, reason := range wr.Reasons {
			fmt.Fprintf(w, "%-12s FAILED: %s\n", wr.Name, reason)
		}
		fmt.Fprintln(w)
	}
	for _, name := range rp.Skipped {
		fmt.Fprintf(w, "%-12s skipped: no -quick size\n\n", name)
	}
	if rp.PerLayer != nil {
		fmt.Fprintf(w, "%-32s %-10s %14s %3s   (one traced pass: median = q1 = q3)\n", "per-layer metric", "unit", "value", "n")
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-32s %-10s %14.6g %3d\n", m.Name, m.Unit, rp.PerLayer[m.Name], 1)
		}
		for _, miss := range rp.Missing {
			fmt.Fprintf(w, "MISSING: %s\n", miss)
		}
		if rp.Spans != "" {
			fmt.Fprintf(w, "spans written to %s\n", rp.Spans)
		}
	}
}

// selfcheck runs the end-to-end set twice back to back on this binary
// and fails if any median moved by more than its metric's bound, or if
// a simulated result moved at all.
func selfcheck(o suiteOpts, w io.Writer) bool {
	o.traced = false
	fmt.Fprintln(o.log, "selfcheck: first set")
	a := runSuite(o)
	fmt.Fprintln(o.log, "selfcheck: second set")
	b := runSuite(o)
	ok := a.failed() == 0 && b.failed() == 0
	if !ok {
		fmt.Fprintf(w, "selfcheck: failed operations (first set %d, second set %d)\n", a.failed(), b.failed())
	}
	fmt.Fprintf(w, "\n%-12s %-14s %12s %12s %8s %8s %8s %7s\n", "workload", "metric", "first", "second", "diff", "iqr/med", "iqr/med", "bound")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, m := range endToEnd {
			da, db := wa.Metrics[m.Name], wb.Metrics[m.Name]
			diff := 0.0
			if da.Value != 0 {
				diff = (db.Value - da.Value) / math.Abs(da.Value)
			}
			verdict := ""
			if math.Abs(diff) > m.Bound {
				verdict, ok = "  OUT OF BOUND", false
			}
			fmt.Fprintf(w, "%-12s %-14s %12.6g %12.6g %+7.2f%% %7.2f%% %7.2f%% %6.0f%%%s\n",
				wa.Name, m.Name, da.Value, db.Value, 100*diff, 100*da.spread(), 100*db.spread(), 100*m.Bound, verdict)
		}
		if wa.Digest != wb.Digest || (wa.Digest != "" && wa.Metrics["model_result"].Value != wb.Metrics["model_result"].Value) {
			fmt.Fprintf(w, "%-12s simulated result differs between the two sets\n", wa.Name)
			ok = false
		}
	}
	verdict := "PASS"
	if !ok {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "\nselfcheck: %s\n", verdict)
	return ok
}

// contractLine is the one-object result the acceptance driver reads
// from the last line of standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract runs one workload for about `seconds` and prints its metrics:
// the end-to-end set when untraced, the per-layer set when traced.
func contract(o suiteOpts, seconds float64, traced bool, w io.Writer) bool {
	if traced {
		// Two untraced repetitions give trace_overhead_pct its base; the
		// traced repetition and the per-layer pass take the rest.
		o.traced, o.reps = true, 2
		o.effort = math.Min(math.Max(seconds/20, 0.05), 1)
	} else {
		o.traced, o.budget = false, time.Duration(seconds*float64(time.Second))
	}
	rp := runSuite(o)
	rp.print(w)
	if len(rp.Workloads) == 0 {
		fmt.Fprintf(w, "workload %s has no -quick size\n", o.only)
		return false
	}
	wr := rp.Workloads[0]
	line := contractLine{Attempted: max(wr.Ops+rp.MicroOps, 1), Failed: rp.failed(), Metrics: map[string]contractValue{}}
	if traced {
		for _, m := range perLayer {
			line.Metrics[m.Name] = contractValue{finite(rp.PerLayer[m.Name]), m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.Name] = contractValue{finite(wr.Metrics[m.Name].Value), m.Unit}
		}
	}
	line.Correct = line.Failed == 0
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Fprintf(w, "%s\n", out)
	return true
}

// finite maps a value JSON cannot carry to 0; the failure that produced
// it is already counted.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// defaultOutDir is bench/out whether the command runs from the
// repository root or from this directory.
func defaultOutDir() string {
	if _, err := os.Stat("bench/digests.json"); err == nil {
		return "bench/out"
	}
	return "out"
}
