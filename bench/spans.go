package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer. Spans are taken
// around calls only — nothing inside the program under test is
// instrumented — and kept in memory until the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Rep    string `json:"rep"`      // "<workload>#<rep>", shared by all spans of one repetition
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder collects spans. A nil *recorder is valid and records nothing:
// the untimed, untraced repetitions run with it nil.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	rep   string
	spans []span
}

func newRecorder(rep string) *recorder { return &recorder{t0: time.Now(), rep: rep} }

// begin opens a span under parent (0 for a root) and returns its id;
// end closes it.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Rep: r.rep, Start: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = int64(time.Since(r.t0))
	r.mu.Unlock()
}

// add records an already-measured interval (the aggregated wrapper
// counters: total time inside a socket write, say) as one span of that
// total length, so self time can be computed without a span per call.
func (r *recorder) add(name string, parent int, total time.Duration) {
	if r == nil {
		return
	}
	id := r.begin(name, parent)
	r.mu.Lock()
	r.spans[id-1].End = r.spans[id-1].Start + int64(total)
	r.mu.Unlock()
}

func (r *recorder) done() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// writeSpans writes every span as one JSON line to dir/spans.jsonl.
func writeSpans(dir string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
