package mptcpnet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"mptcp/internal/trace"
)

// TestTracerOverMemPipe drives the real stack's half of internal/trace:
// a traced transfer over the in-memory pipe, with every 40th data
// datagram lost, must flush a JSONL trace for its one connection that
// holds window changes, RTT samples and the retransmissions the losses
// force, stamped on the wall clock in non-decreasing order.
func TestTracerOverMemPipe(t *testing.T) {
	tr := trace.New(0, trace.WallNow(time.Now()))
	tx, rx, snd := memPipe(t, Config{Tracer: tr, MinRTO: 20 * time.Millisecond}, 256)
	var data atomic.Int64
	snd.drop = func(b []byte) bool {
		var h header
		return h.unmarshal(b) == nil && h.Type == typeData && data.Add(1)%40 == 0
	}
	const size = 256 << 10
	go func() {
		tx.Write(make([]byte, size)) //nolint:errcheck
		tx.Close()
	}()
	if got := drainEOF(t, rx); got != size {
		t.Fatalf("received %d bytes, want %d", got, size)
	}
	if err := tx.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := tr.Flush(&out); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	var last int64
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var ev struct {
			Ev   string
			Conn int32
			T    int64
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Bytes(), err)
		}
		if ev.Conn != 0 {
			t.Fatalf("line %q: conn %d, want the one traced connection 0", sc.Bytes(), ev.Conn)
		}
		kinds[ev.Ev]++
		if ev.Ev == "meta" {
			continue
		}
		if ev.T < last {
			t.Fatalf("stamp %d after %d: events out of order", ev.T, last)
		}
		last = ev.T
	}
	t.Logf("trace: %v", kinds)
	if kinds["meta"] != 1 {
		t.Errorf("%d meta lines, want 1", kinds["meta"])
	}
	for _, k := range []string{"cwnd", "rtt", "retx"} {
		if kinds[k] == 0 {
			t.Errorf("no %q events in the trace (kinds %v)", k, kinds)
		}
	}
	if st := tx.Stats(); int(st.SegsRetx) != kinds["retx"] {
		t.Errorf("trace holds %d retransmissions, the sender counted %d", kinds["retx"], st.SegsRetx)
	}
}
