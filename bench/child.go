package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mptcp/internal/exp"
)

// childArgs is what the parent passes to `-child`.
type childArgs struct {
	Workload string // a workload name, or "micro" for the per-layer drivers
	Seed     int64
	Rep      int
	Quick    bool
	Traced   bool
	Effort   float64 // micro only: share of the full iteration counts
	T0       int64   // parent's clock just before it started the child, Unix ns
}

// repResult is one repetition of one workload, as the child prints it.
type repResult struct {
	Workload  string             `json:"workload"`
	Rep       int                `json:"rep"`
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	AllocsK   float64            `json:"allocs_k"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Model     float64            `json:"model_result"`
	Ops       int                `json:"ops"`
	Failed    int                `json:"failed"`
	Reasons   []string           `json:"reasons,omitempty"`
	Digest    string             `json:"digest,omitempty"`
	Extra     map[string]float64 `json:"extra,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"` // micro only
	Spans     []span             `json:"spans,omitempty"`
}

func (r *repResult) fail(format string, a ...any) {
	r.Failed++
	r.Reasons = append(r.Reasons, fmt.Sprintf(format, a...))
}

// meter measures a timed region: wall clock, process CPU (user+sys) and
// heap allocations.
type meter struct {
	t   time.Time
	cpu time.Duration
	ms  runtime.MemStats
}

type meterResult struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuTime()
	m.t = time.Now()
	return m
}

func (m *meter) stop() meterResult {
	wall := time.Since(m.t)
	cpu := cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meterResult{wall: wall, cpu: cpu, mallocs: ms.Mallocs - m.ms.Mallocs, bytes: ms.TotalAlloc - m.ms.TotalAlloc}
}

func (r *repResult) setMeter(m meterResult) {
	r.WallS = m.wall.Seconds()
	r.CPUS = m.cpu.Seconds()
	r.AllocsK = float64(m.mallocs) / 1e3
}

// peakRSSMB reads the process's VmHWM; each repetition is its own
// process, so this is that repetition's peak and nothing else's.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// childMain runs one repetition and prints its result as one JSON line.
func childMain(a childArgs) int {
	res := repResult{Workload: a.Workload, Rep: a.Rep}
	var rec *recorder
	if a.Traced {
		rec = newRecorder(fmt.Sprintf("%s#%d", a.Workload, a.Rep))
	}
	root := rec.begin("child", 0)
	func() {
		// A panic inside the program under test is a failed repetition,
		// reported like any other failure.
		defer func() {
			if p := recover(); p != nil {
				res.Ops = max(res.Ops, 1)
				res.fail("panic: %v", p)
			}
		}()
		switch w, ok := findWorkload(a.Workload); {
		case a.Workload == "micro":
			runMicro(a, rec, root, &res)
		case !ok:
			res.Ops = 1
			res.fail("unknown workload %q", a.Workload)
		case w.UDP:
			runUDP(w, a, rec, root, &res)
		default:
			runSim(w, a, rec, root, &res)
		}
	}()
	rec.end(root)
	res.PeakRSSMB = peakRSSMB()
	res.Spans = rec.done()
	// JSON cannot carry NaN or Inf. Whatever produced one is already a
	// counted failure, or shows as a missing per-layer metric.
	for _, v := range []*float64{&res.SetupS, &res.WallS, &res.CPUS, &res.AllocsK, &res.PeakRSSMB, &res.Model} {
		*v = finite(*v)
	}
	for k, v := range res.Layers {
		if v != finite(v) {
			delete(res.Layers, k)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(&res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// sinceParent is the set-up time: from just before the parent started
// this process to now, so it covers exec, runtime start, package
// initialisation (the registries and the embedded bandit model) and the
// workload's own preparation.
func sinceParent(a childArgs) float64 {
	return float64(time.Now().UnixNano()-a.T0) / 1e9
}

func (w workload) scale(quick bool) float64 {
	if quick {
		return w.Scale * w.QuickMul
	}
	return w.Scale
}

func runSim(w workload, a childArgs, rec *recorder, root int, res *repResult) {
	sp := rec.begin("setup", root)
	e, ok := exp.Get(w.ExpID)
	if !ok {
		res.Ops = 1
		res.fail("experiment %q is not registered", w.ExpID)
		return
	}
	cfg := exp.Config{Seed: a.Seed, Scale: w.scale(a.Quick), Parallelism: 1, Shards: 1, Sched: w.Sched, Workload: w.App}
	rec.end(sp)

	res.SetupS = sinceParent(a)
	m := startMeter()
	sp = rec.begin("exp.run["+w.ExpID+"]", root)
	r := e.Run(cfg)
	rec.end(sp)
	res.setMeter(m.stop())

	res.Digest = checkResult(r, res)
	res.Model = modelOf(w, r)
	if math.IsNaN(res.Model) || math.IsInf(res.Model, 0) {
		res.fail("model_result is not finite")
	}
}

// checkResult counts the result's operations (grid records, or headline
// metrics when the experiment has no records), fails the non-finite
// ones, and returns the SHA-256 of a canonical bit-exact rendering.
func checkResult(r *exp.Result, res *repResult) string {
	h := sha256.New()
	writeMetrics := func(m map[string]float64) bool {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		finite := true
		for _, k := range keys {
			v := m[k]
			fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(v, 'x', -1, 64))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
			}
		}
		return finite
	}
	fmt.Fprintf(h, "id=%s\n", r.ID)
	headlineOK := writeMetrics(r.Metrics)
	if len(r.Records) == 0 {
		res.Ops = max(len(r.Metrics), 1)
		if !headlineOK {
			res.fail("%s: non-finite headline metric", r.ID)
		}
	}
	for i, c := range r.Records {
		res.Ops++
		fmt.Fprintf(h, "record %d %s|%s|%s|%s|%d|%s\n", i, c.Algorithm, c.Topology, c.Scenario, c.Scheduler, c.RecvBuf, c.Workload)
		if !writeMetrics(c.Metrics) {
			res.fail("%s: non-finite metric in record %s/%s/%s/%s", r.ID, c.Algorithm, c.Topology, c.Scheduler, c.Workload)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// modelOf extracts the workload's model_result (see workload.ModelDesc).
func modelOf(w workload, r *exp.Result) float64 {
	switch w.Name {
	case "torus-bulk":
		return 1 / r.Metrics["mptcp_jain_c100"]
	case "fleet-churn":
		return meanOf(r.Records, "fct_mean_s")
	case "app-rbuf":
		return meanOf(r.Records, "rebuffer_ratio")
	}
	return math.NaN()
}

func meanOf(recs []exp.Record, metric string) float64 {
	sum, n := 0.0, 0
	for _, c := range recs {
		if v, ok := c.Metrics[metric]; ok {
			sum += v
			n++
		}
	}
	return sum / float64(n)
}

func runUDP(w workload, a childArgs, rec *recorder, root int, res *repResult) {
	res.Ops = 1
	size := w.Bytes
	if a.Quick {
		size = w.QuickBytes
	}
	sp := rec.begin("setup", root)
	// Each repetition of a path-bound run draws its own loss pattern, so
	// that the run's median is over patterns, not one pattern's luck.
	t, err := prepare(xferOpts{bytes: size, seed: a.Seed, cseed: a.Seed*1000 + int64(a.Rep), lossy: w.Lossy, traced: a.Traced})
	rec.end(sp)
	if err != nil {
		res.fail("set-up: %v", err)
		return
	}
	defer t.close()

	res.SetupS = sinceParent(a)
	x := t.run(rec, root)
	res.setMeter(x.meterResult)
	if x.err != nil {
		res.fail("transfer: %v", x.err)
		return
	}
	segs := float64(x.segments)
	// SegsSent counts each segment's first transmission on a subflow
	// (reinjections included), SegsRetx the same-subflow repeats.
	res.Model = float64(x.stats.SegsSent+x.stats.SegsRetx) / segs
	res.Extra = map[string]float64{
		"goodput_mbps":   float64(size) * 8 / 1e6 / x.wall.Seconds(),
		"rcvbuf_bytes":   float64(t.rcvBuf),
		"segments":       segs,
		"seg_allocs":     float64(x.mallocs) / segs,
		"retx_ratio":     float64(x.stats.SegsRetx) / segs,
		"reinject_ratio": float64(x.stats.Reinjects) / segs,
		"dup_data_ratio": float64(x.rxDup) / segs,
	}
}
