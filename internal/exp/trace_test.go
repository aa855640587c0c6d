package exp

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"testing"
)

var updateTrace = flag.Bool("update-trace-golden", false,
	"rewrite testdata/trace_wifi3g_flap.golden.jsonl from the current engine")

// traceWiFi3GFlapCell runs the fixed reference cell — MPTCP on the
// WiFi+3G topology under the flap scenario, seed CellSeed(5, 0), scale
// 0.02 — with tracing on and returns the flushed trace bytes.
func traceWiFi3GFlapCell(t *testing.T) []byte {
	t.Helper()
	var sink bytes.Buffer
	c := &gridCell{Config: Config{Scale: 0.02, TraceW: &sink}.norm(), vals: []string{"MPTCP", "wifi3g", "flap"}}
	c.Seed = CellSeed(5, 0)
	dynCell(c)
	var b bytes.Buffer
	if err := c.tr.Flush(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTraceGoldenWiFi3GFlap pins the trace JSONL of a fixed-seed cell
// byte for byte against the checked-in golden: the event stream —
// timestamps, ordering, float rendering — is part of the deterministic
// surface, exactly like the figure digests. If an intentional
// protocol or tracer change alters the stream, regenerate with
//
//	go test ./internal/exp/ -run TestTraceGoldenWiFi3GFlap -update-trace-golden
//
// and say why in the commit message.
func TestTraceGoldenWiFi3GFlap(t *testing.T) {
	got := traceWiFi3GFlapCell(t)
	const path = "testdata/trace_wifi3g_flap.golden.jsonl"
	if *updateTrace {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("trace diverges from golden at line %d:\n  got:  %s\n  want: %s\n(got %d lines, want %d; regenerate with -update-trace-golden if intentional)",
					i+1, gl[i], wl[i], len(gl), len(wl))
			}
		}
		t.Fatalf("trace length diverges from golden: got %d lines, want %d", len(gl), len(wl))
	}
}

// tracedGrids are the four grids whose cells run in one simulated world,
// each with a filter that keeps the traced runs below small (the
// tournament has no filter axis; its grid is small enough), and two of
// the paper's own figures: a swept one and a single-world one.
var tracedGrids = []struct {
	id     string
	filter Config
}{
	{"tournament", Config{}},
	{"dynamics", Config{Scenario: "flap"}},
	{"schedgrid", Config{Sched: "minrtt+otr+pen"}},
	{"appgrid", Config{Workload: "video"}},
	{"fig15-wireless-compete", Config{}},
	{"fig17-mobility", Config{}},
}

// TestTraceDeterministicAcrossParallelism extends the runner's core
// guarantee to the trace artifact: a grid's concatenated trace file is
// byte-identical whether cells run on one worker or eight, because each
// cell records into a private tracer and the grid engine flushes them
// sequentially in cell order.
func TestTraceDeterministicAcrossParallelism(t *testing.T) {
	for _, g := range tracedGrids {
		t.Run(g.id, func(t *testing.T) {
			e, _ := Get(g.id)
			run := func(par int) []byte {
				var b bytes.Buffer
				cfg := g.filter
				cfg.Seed, cfg.Scale, cfg.Parallelism, cfg.TraceW = 5, 0.02, par, &b
				e.Run(cfg)
				return b.Bytes()
			}
			serial := run(1)
			parallel := run(8)
			if len(serial) == 0 {
				t.Fatal("traced run produced no trace output")
			}
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("trace bytes diverge across parallelism: %d vs %d bytes", len(serial), len(parallel))
			}
			if again := run(8); !bytes.Equal(parallel, again) {
				t.Error("two same-seed traced runs diverge (hidden shared state?)")
			}
		})
	}
}

// TestTracingDoesNotPerturbResults: enabling tracing must leave the
// simulation bit-identical — the tracer only observes, never draws from
// the world RNG or changes event timing. Metrics and per-cell Records
// of traced and untraced same-seed runs must be DeepEqual, and the
// rendered reports (all a per-figure experiment has) the same bytes.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	for _, g := range tracedGrids {
		t.Run(g.id, func(t *testing.T) {
			e, _ := Get(g.id)
			cfg := g.filter
			cfg.Seed, cfg.Scale, cfg.Parallelism = 5, 0.02, 4
			plain := e.Run(cfg)
			var b bytes.Buffer
			cfg.TraceW = &b
			withTrace := e.Run(cfg)
			if !reflect.DeepEqual(plain.Metrics, withTrace.Metrics) {
				t.Errorf("tracing perturbed metrics:\n  off: %v\n  on:  %v", plain.Metrics, withTrace.Metrics)
			}
			if !reflect.DeepEqual(plain.Records, withTrace.Records) {
				t.Error("tracing perturbed per-cell records")
			}
			var off, on bytes.Buffer
			plain.Render(&off)
			withTrace.Render(&on)
			if !bytes.Equal(off.Bytes(), on.Bytes()) {
				t.Error("tracing perturbed the rendered report")
			}
			if b.Len() == 0 {
				t.Error("traced run wrote no trace output")
			}
		})
	}
}

// TestTraceStreamShape sanity-checks the reference cell's stream: the
// flap scenario must surface link down/up events, and a live MPTCP
// transfer must produce RTT samples and cwnd changes.
func TestTraceStreamShape(t *testing.T) {
	got := traceWiFi3GFlapCell(t)
	for _, want := range []string{
		`"ev":"meta"`, `"label":"MPTCP/wifi3g/flap"`,
		`"ev":"link"`, `"what":"down"`, `"what":"up"`,
		`"ev":"rtt"`, `"ev":"cwnd"`,
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("trace stream missing %s", want)
		}
	}
}
