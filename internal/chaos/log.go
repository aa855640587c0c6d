package chaos

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one line of the chaos event log: what the harness, its
// director or a script did, when, to which path. A failing soak run's JSONL log plus
// the seed is a complete replay recipe.
type Event struct {
	T      float64 `json:"t"` // seconds since the log was opened
	Ev     string  `json:"ev"`
	Path   string  `json:"path,omitempty"`
	Socket int     `json:"socket,omitempty"`
	Detail string  `json:"detail,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
	Bytes  int     `json:"bytes,omitempty"`
	Err    string  `json:"err,omitempty"`
}

// Log is a concurrency-safe JSONL event sink. A nil *Log or a Log with a
// nil writer discards events, so callers never need to guard emission.
type Log struct {
	mu    sync.Mutex
	w     io.Writer
	start time.Time
}

// NewLog wraps w (may be nil) as an event sink; timestamps are relative
// to this call.
func NewLog(w io.Writer) *Log {
	return &Log{w: w, start: time.Now()}
}

// Emit writes one event line. Safe on a nil receiver.
func (l *Log) Emit(e Event) {
	if l == nil || l.w == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e.T = time.Since(l.start).Seconds()
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	l.w.Write(append(b, '\n')) //nolint:errcheck // best-effort telemetry
}
