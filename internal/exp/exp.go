// Package exp contains one registered experiment per table and figure in
// the paper's evaluation (§2–§5), plus ablations of the design decisions.
// Each experiment builds its scenario from the substrate packages, runs
// the packet-level simulation and reports the same rows/series the paper
// does. The cmd/mptcp-exp tool and the benchmark module (bench/) both
// drive this registry.
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mptcp/internal/cc"
	"mptcp/internal/core"
	"mptcp/internal/metrics"
	"mptcp/internal/netsim"
	"mptcp/internal/registry"
	"mptcp/internal/sim"
	"mptcp/internal/trace"
	"mptcp/internal/transport"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives all randomness; equal seeds give identical results.
	Seed int64
	// Scale multiplies simulated durations (and, below 0.5, shrinks the
	// data-centre topologies) so the suite can run quickly in tests.
	// 1.0 reproduces the paper-fidelity setup.
	Scale float64
	// Parallelism bounds how many trial cells run concurrently (see
	// grid.go). Zero means runtime.GOMAXPROCS(0); results are
	// bit-identical for every value.
	Parallelism int
	// Shards bounds how many partition domains of a sharded-engine
	// experiment (fleet) run concurrently within one cell. Zero means
	// runtime.GOMAXPROCS(0); like Parallelism, results are bit-identical
	// for every value (sim.Sharded's barrier-merge guarantees it).
	// Experiments without intra-cell sharding ignore it.
	Shards int
	// Scenario, Sched and Workload restrict a grid experiment to one
	// value of its "scenario", "scheduler" or "workload" axis (dynamics;
	// schedgrid, appgrid, fleet; appgrid); empty runs the full grid, and
	// a grid without the axis ignores the field. Sched is a sched.Parse
	// spec such as "minrtt+otr+pen" and is canonicalised before matching.
	// Filtering never changes a cell's derived seed — a filtered run
	// reproduces exactly the corresponding cells of the full grid (see
	// grid.go).
	Scenario string
	Sched    string
	Workload string
	// TraceW, when non-nil, enables protocol tracing in every experiment
	// whose cells each run in one simulated world — all but fleet: each
	// cell records its connections' events into a private internal/trace
	// tracer labelled with the cell's axis values, and the cells' traces
	// are flushed to TraceW as JSONL in cell order after the experiment
	// completes — so the trace bytes, like the results, are identical at
	// any Parallelism. Tracing never perturbs simulation results: enabled
	// and disabled runs produce bit-identical reports and Records.
	TraceW io.Writer
}

func (c Config) norm() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// dur scales a paper-fidelity duration.
func (c Config) dur(d sim.Time) sim.Time {
	t := sim.Time(float64(d) * c.Scale)
	if t < 100*sim.Millisecond {
		t = 100 * sim.Millisecond
	}
	return t
}

// Table is a printable result table.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]string
}

// Point is one (x, y) sample of a figure.
type Point struct{ X, Y float64 }

// Curve is a named series within a figure.
type Curve struct {
	Name string
	Pts  []Point
}

// Figure is a reproduced plot: one curve per algorithm/series.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Curves []Curve
}

// Record is one line of a run's JSONL (TrialResult.WriteJSONL, which
// cmd/mptcp-exp -json writes): one grid cell of a cross-product
// experiment, or the headline metrics of a trial of an experiment
// without cells. The five grids (tournament, dynamics, schedgrid,
// fleet, appgrid) attach one Record per cell to their Result, in cell
// order, labelled with the cell's axis values (grid.record); the
// identity fields are the trial's, and the writer fills them in. The
// field-by-field schema is DESIGN.md §"JSONL record schema".
type Record struct {
	ID  string `json:"id"`
	Ref string `json:"ref,omitempty"` // trial lines only
	// Trial, Seed and Scale are the trial's: its index in the batch and
	// the normalised base seed and scale it ran with (not a cell's seed).
	Trial   int     `json:"trial"`
	Seed    int64   `json:"seed"`
	Scale   float64 `json:"scale"`
	WallSec float64 `json:"wall_s,omitempty"` // trial lines only
	// The cell's dimensions; empty on a trial line, so a reader tells the
	// two kinds apart by Algorithm.
	Algorithm string `json:"algorithm,omitempty"`
	Topology  string `json:"topology,omitempty"`
	// Scenario names the network-dynamics script of the cell; empty for
	// static-network grids (the tournament).
	Scenario string `json:"scenario,omitempty"`
	// Scheduler names the packet-scheduler spec of the cell (a
	// sched.Parse spec such as "minrtt" or "minrtt+otr+pen"); empty for
	// grids without a scheduler axis.
	Scheduler string `json:"scheduler,omitempty"`
	// Workload names the application workload driving the cell's
	// transfers (an internal/workload name such as "web" or "video");
	// empty for grids without an application layer.
	Workload string `json:"workload,omitempty"`
	// RecvBuf is the shared receive buffer, in packets, constraining the
	// cell's multipath flows; 0 means unconstrained (grids without a
	// buffer axis leave it 0).
	RecvBuf int64              `json:"recv_buf,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	Notes   []string           `json:"notes,omitempty"` // trial lines only
}

// Result is everything an experiment reports.
type Result struct {
	ID      string
	Tables  []Table
	Figures []Figure
	Notes   []string
	// Metrics exposes headline scalars, e.g. "mptcp_total_mbps": the
	// rendered report's metric lines and, for an experiment without
	// Records, its JSONL line.
	Metrics map[string]float64
	// Records holds one line per grid cell for cross-product
	// experiments; empty for the per-figure experiments.
	Records []Record
}

func newResult(id string) *Result {
	return &Result{ID: id, Metrics: make(map[string]float64)}
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render writes a human-readable report.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", r.ID)
	for _, t := range r.Tables {
		fmt.Fprintf(w, "\n%s\n", t.Title)
		widths := make([]int, len(t.Cols))
		for i, c := range t.Cols {
			widths[i] = len(c)
		}
		for _, row := range t.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		line := func(cells []string) {
			parts := make([]string, len(cells))
			for i, c := range cells {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			}
			fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
		}
		line(t.Cols)
		for _, row := range t.Rows {
			line(row)
		}
	}
	for _, f := range r.Figures {
		fmt.Fprintf(w, "\n%s  (x: %s, y: %s)\n", f.Title, f.XLabel, f.YLabel)
		for _, c := range f.Curves {
			fmt.Fprintf(w, "  %s:", c.Name)
			for _, p := range c.Pts {
				fmt.Fprintf(w, " (%.4g, %.4g)", p.X, p.Y)
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.Notes) > 0 {
		fmt.Fprintln(w)
		for _, n := range r.Notes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
	}
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintln(w)
		for _, k := range keys {
			fmt.Fprintf(w, "  metric %s = %.4g\n", k, r.Metrics[k])
		}
	}
}

// Experiment couples an ID and paper reference with a runner.
type Experiment struct {
	ID   string
	Ref  string // the table/figure in the paper
	Desc string
	Run  func(Config) *Result
}

var experiments = registry.New[*Experiment]("exp", "experiment")

// register adds an experiment to the catalogue; each file registers its
// own in init, so the catalogue's order is the files' init order.
func register(e *Experiment) { experiments.Add(e, e.ID) }

// Get looks an experiment up by ID.
func Get(id string) (*Experiment, bool) {
	e, err := experiments.Lookup(id)
	return e, err == nil
}

// All returns the experiments in catalogue order.
func All() []*Experiment { return experiments.Entries() }

// --- shared helpers ---------------------------------------------------

// paperAlgs are the multipath algorithms the paper compares, in its
// presentation order.
var paperAlgs = []string{"EWTCP", "COUPLED", "MPTCP"}

// metricKey turns an algorithm or flow name ("MPTCP", "TCP-WiFi") into
// the prefix of its headline metrics ("mptcp", "tcp_wifi").
func metricKey(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, "-", "_"))
}

// mpAlg is a scene's mp argument for multipath flows that differ from
// the stack defaults only in their algorithm: a fresh instance per
// flow, since MPTCP and its successors keep per-connection state.
func mpAlg(name string) func() transport.Config {
	return func() transport.Config { return transport.Config{Alg: newAlg(name)} }
}

func newAlg(name string) core.Algorithm {
	a, err := cc.New(name)
	if err != nil {
		panic(err)
	}
	return a
}

// world bundles a simulator and network with an experiment-local seed.
type world struct {
	s *sim.Simulator
	n *netsim.Net
	// tr is the cell's protocol tracer: nil (tracing disabled, the
	// default) unless the cell built the world with Config.TraceW set
	// (gridCell.world). scene.add passes it to every connection.
	tr *trace.Tracer
}

func newWorld(seed int64) *world {
	s := sim.New(seed)
	return &world{s: s, n: netsim.NewNet(s)}
}

// measure runs the simulation to warm, snapshots flow progress, runs to
// end, and returns each connection's throughput in Mb/s over [warm, end].
func (w *world) measure(conns []*transport.Conn, warm, end sim.Time) []float64 {
	w.s.RunUntil(warm)
	base := snapshot(conns)
	w.s.RunUntil(end)
	return ratesSince(conns, base, end-warm)
}

func snapshot(conns []*transport.Conn) []int64 {
	out := make([]int64, len(conns))
	for i, c := range conns {
		out[i] = c.Delivered()
	}
	return out
}

func ratesSince(conns []*transport.Conn, base []int64, dur sim.Time) []float64 {
	out := make([]float64, len(conns))
	for i, c := range conns {
		out[i] = metrics.ThroughputMbps(c.Delivered()-base[i], dur)
	}
	return out
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
