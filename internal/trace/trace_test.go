package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fakeClock is a deterministic monotonic clock for tests.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { c.t += 10; return c.t }

// TestNilTracerSafe: every method of a nil *Tracer must be a no-op —
// this IS the disabled mode of the endpoint stacks.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if id := tr.ConnID(); id != -1 {
		t.Fatalf("nil ConnID = %d, want -1", id)
	}
	tr.SetLabel("x")
	tr.CwndChange(0, 0, 10)
	tr.RTTSample(0, 0, 0.05)
	tr.Loss(0, 0, "fast", 7)
	tr.Retx(0, 0, 7)
	tr.OppRetx(0, 1, 9)
	tr.Penalty(0, 1, 5)
	tr.SchedPick(0, 0, 3)
	tr.SubflowState(0, 0, "recovery")
	tr.LinkEvent("wifi", "down", 0)
	tr.Record(Event{Kind: KindCwnd})
	if err := tr.Flush(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil Flush: %v", err)
	}
}

// TestFlushDeterministic: the same recording sequence yields the same
// bytes, with connections in ID order and events in record order.
func TestFlushDeterministic(t *testing.T) {
	run := func() string {
		clk := &fakeClock{}
		tr := New(16, clk.now)
		tr.SetLabel("cell/0")
		c0 := tr.ConnID()
		c1 := tr.ConnID()
		tr.LinkEvent("3g", "rate", 2.5)
		tr.CwndChange(c1, 0, 4)
		tr.RTTSample(c0, 1, 0.025)
		tr.Loss(c0, 1, "fast", 42)
		tr.Retx(c0, 1, 42)
		tr.OppRetx(c1, 0, 100)
		tr.Penalty(c1, 0, 2)
		tr.SchedPick(c0, 0, 7)
		tr.SubflowState(c0, 1, "recovery")
		tr.LinkEvent("3g", "down", 0)
		var buf bytes.Buffer
		if err := tr.Flush(&buf); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("flush not deterministic:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	for _, want := range []string{
		`{"ev":"meta","conn":-1,"label":"cell/0","events":2,"dropped":0}`,
		`{"ev":"link","t":10,"name":"3g","what":"rate","v":2.5}`,
		`{"ev":"meta","conn":0,"label":"cell/0","events":5,"dropped":0}`,
		`{"ev":"rtt","t":30,"conn":0,"sub":1,"rtt_s":0.025}`,
		`{"ev":"loss","t":40,"conn":0,"sub":1,"via":"fast","seq":42}`,
		`{"ev":"retx","t":50,"conn":0,"sub":1,"seq":42}`,
		`{"ev":"sched","t":80,"conn":0,"sub":0,"data_seq":7}`,
		`{"ev":"state","t":90,"conn":0,"sub":1,"state":"recovery"}`,
		`{"ev":"meta","conn":1,"label":"cell/0","events":3,"dropped":0}`,
		`{"ev":"cwnd","t":20,"conn":1,"sub":0,"cwnd":4}`,
		`{"ev":"oppretx","t":60,"conn":1,"sub":0,"data_seq":100}`,
		`{"ev":"penalty","t":70,"conn":1,"sub":0,"cwnd":2}`,
	} {
		if !strings.Contains(a, want+"\n") {
			t.Errorf("flush output missing line %s\ngot:\n%s", want, a)
		}
	}
	// Link ring flushes first, then connections ascending.
	if i, j := strings.Index(a, `"conn":-1`), strings.Index(a, `"conn":0`); i > j {
		t.Errorf("link ring not flushed before conn 0")
	}
}

// TestRingOverflow: the ring keeps the most recent Cap events and
// counts what it dropped; Flush resets both.
func TestRingOverflow(t *testing.T) {
	clk := &fakeClock{}
	tr := New(4, clk.now)
	c := tr.ConnID()
	for seq := int64(0); seq < 10; seq++ {
		tr.Retx(c, 0, seq)
	}
	var buf bytes.Buffer
	if err := tr.Flush(&buf); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `"events":4,"dropped":6}`) {
		t.Errorf("want 4 events / 6 dropped in meta, got:\n%s", out)
	}
	// Survivors are the newest four, in order.
	for _, seq := range []string{`"seq":6}`, `"seq":7}`, `"seq":8}`, `"seq":9}`} {
		if !strings.Contains(out, seq) {
			t.Errorf("missing surviving event %s in:\n%s", seq, out)
		}
	}
	if strings.Contains(out, `"seq":5}`) {
		t.Errorf("dropped event survived:\n%s", out)
	}
	// Second flush: ring and drop counter reset.
	buf.Reset()
	if err := tr.Flush(&buf); err != nil {
		t.Fatalf("Flush 2: %v", err)
	}
	if !strings.Contains(buf.String(), `"events":0,"dropped":0}`) {
		t.Errorf("flush did not reset ring: %s", buf.String())
	}
}

// TestRingGrowsOnDemand: a ring allocates nothing until its connection
// records, and a ring flushed part-full keeps the overflow contract
// when it grows on to its capacity and wraps.
func TestRingGrowsOnDemand(t *testing.T) {
	tr := New(4, (&fakeClock{}).now)
	c := tr.ConnID()
	if n := cap(tr.rings[c].ev) + cap(tr.links.ev); n != 0 {
		t.Fatalf("fresh tracer holds %d event slots, want 0", n)
	}
	tr.Retx(c, 0, 0)
	tr.Retx(c, 0, 1)
	var buf bytes.Buffer
	if err := tr.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"events":2,"dropped":0}`) {
		t.Errorf("part-full flush:\n%s", buf.String())
	}
	buf.Reset()
	for seq := int64(2); seq < 8; seq++ {
		tr.Retx(c, 0, seq)
	}
	if err := tr.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"events":4,"dropped":2}`) {
		t.Errorf("want 4 events / 2 dropped after regrowth, got:\n%s", out)
	}
	if i, j := strings.Index(out, `"seq":4}`), strings.Index(out, `"seq":7}`); i < 0 || j < i || strings.Contains(out, `"seq":3}`) {
		t.Errorf("survivors are not the newest four in order:\n%s", out)
	}
}

// TestRecordZeroAlloc: steady-state recording must not allocate — a
// ring grows to its capacity once, events are by-value, and the clock
// closure exists before the measurement. This is what keeps
// tracing-enabled runs cheap enough to leave on across a whole
// experiment grid.
func TestRecordZeroAlloc(t *testing.T) {
	clk := &fakeClock{}
	tr := New(64, clk.now)
	c := tr.ConnID()
	for i := 0; i < 64; i++ { // grow both rings to capacity
		tr.Retx(c, 0, int64(i))
		tr.LinkEvent("wifi", "up", 0)
	}
	avg := testing.AllocsPerRun(1000, func() {
		tr.CwndChange(c, 0, 10)
		tr.RTTSample(c, 1, 0.03)
		tr.Retx(c, 0, 5)
		tr.LinkEvent("wifi", "up", 0)
	})
	if avg != 0 {
		t.Fatalf("recording allocates %.1f allocs/op, want 0", avg)
	}
}

// TestWallNow: the wall clock counts from start and is monotonic
// non-decreasing.
func TestWallNow(t *testing.T) {
	now := WallNow(time.Now())
	a := now()
	b := now()
	if a < 0 || b < a {
		t.Fatalf("wall clock not monotonic: %d then %d", a, b)
	}
}

// TestUnknownConnDropped: events for conn IDs never allocated are
// silently dropped rather than panicking.
func TestUnknownConnDropped(t *testing.T) {
	tr := New(4, (&fakeClock{}).now)
	tr.CwndChange(5, 0, 10) // no ConnID() calls yet
	var buf bytes.Buffer
	if err := tr.Flush(&buf); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("expected empty flush, got %q", buf.String())
	}
}

// TestStringEscaping: labels with JSON-special bytes cannot corrupt the
// stream.
func TestStringEscaping(t *testing.T) {
	var b []byte
	b = appendString(b, "a\"b\\c\nd")
	want := "\"a\\\"b\\\\c\\u000ad\""
	if string(b) != want {
		t.Fatalf("appendString = %s, want %s", b, want)
	}
}
