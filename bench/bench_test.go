package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// harness re-executes os.Executable() with -child for every repetition.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json and spec.go state the same workloads and metrics, and
// stay inside the contract's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Fatalf("%d workloads / %d end-to-end / %d per-layer exceed 8 / 16 / 128", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		check(w.Name)
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in spec.go", i, w.Name, workloads[i].Name)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %+v\n spec.go        %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go (%d vs %d entries)", len(b.PerLayer), len(perLayer))
	}
	for _, m := range append(append([]metricSpec{}, b.EndToEnd...), b.PerLayer...) {
		check(m.Name)
	}
}

// quickRun runs the benchmark in -quick mode and returns its report.
func quickRun(t *testing.T, args ...string) (report, string) {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"-quick", "-out", t.TempDir()}, args...)
	if code := run(args, &out); code != 0 {
		t.Fatalf("bench %v exited %d:\n%s", args, code, out.String())
	}
	var rp report
	if err := json.Unmarshal(lastLine(out.Bytes()), &rp); err != nil {
		t.Fatalf("last line of output is not a JSON report: %v", err)
	}
	return rp, out.String()
}

// The -quick run emits a valid report naming every workload and metric
// of BENCHMARK.json, with nothing failed.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the benchmark's child processes")
	}
	b := readBenchmarkJSON(t)
	rp, text := quickRun(t, "-seed", "3")
	if n := rp.failed(); n != 0 {
		t.Errorf("%d failed operations:\n%s", n, text)
	}
	for _, w := range b.Workloads {
		if !bytes.Contains([]byte(text), []byte(w.Name)) {
			t.Errorf("workload %q does not appear in the output", w.Name)
		}
	}
	for _, wr := range rp.Workloads {
		for _, m := range b.EndToEnd {
			if d, ok := wr.Metrics[m.Name]; !ok || d.N == 0 {
				t.Errorf("%s: end-to-end metric %q missing", wr.Name, m.Name)
			}
		}
	}
	for _, m := range b.PerLayer {
		if _, ok := rp.PerLayer[m.Name]; !ok {
			t.Errorf("per-layer metric %q missing", m.Name)
		}
	}
	for _, zero := range []string{"sim.post_pop_allocs", "sim.timer_rearm_allocs", "netsim.hop_allocs", "sched.pick_allocs"} {
		if v := rp.PerLayer[zero]; v != 0 {
			t.Errorf("%s = %v, want 0", zero, v)
		}
	}
	if rp.Spans == "" {
		t.Error("no spans file written")
	} else if raw, err := os.ReadFile(rp.Spans); err != nil || !bytes.Contains(raw, []byte(`"name":"exp.run[fig8-torus]"`)) {
		t.Errorf("spans file lacks the torus-bulk run span (err %v)", err)
	}

	// A second run at the same seed reproduces every simulated result bit
	// for bit.
	again := runSuite(suiteOpts{seed: 3, reps: 1, quick: true, log: io.Discard})
	for i, wr := range again.Workloads {
		if first := rp.Workloads[i]; first.Digest != wr.Digest {
			t.Errorf("%s: digest %s, then %s at the same seed", wr.Name, first.Digest, wr.Digest)
		}
	}
}
