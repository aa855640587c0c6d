package exp

import (
	"bytes"
	"flag"
	"os"
	"sync"
	"testing"
)

var updateTrace = flag.Bool("update-trace-golden", false,
	"rewrite testdata/trace_wifi3g_flap.golden.jsonl from the current engine")

// traceWiFi3GFlap runs the fixed reference cell — MPTCP on the WiFi+3G
// topology under the flap scenario, seed CellSeed(5, 0), scale 0.02 —
// with tracing on, once per test process, and keeps the flushed trace
// bytes for every test that reads them.
var traceWiFi3GFlap = sync.OnceValues(func() ([]byte, error) {
	var sink bytes.Buffer
	c := &gridCell{Config: Config{Scale: 0.02, TraceW: &sink}.norm(), vals: []string{"MPTCP", "wifi3g", "flap"}}
	c.Seed = CellSeed(5, 0)
	dynCell(c)
	var b bytes.Buffer
	err := c.tr.Flush(&b)
	return b.Bytes(), err
})

// traceWiFi3GFlapCell returns the reference cell's trace, a copy of its
// own, so no test writes to the shared bytes.
func traceWiFi3GFlapCell(t *testing.T) []byte {
	t.Helper()
	b, err := traceWiFi3GFlap()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(b)
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
