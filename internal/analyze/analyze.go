// Package analyze turns the JSONL artifacts of mptcp-exp into summary
// tables and CSV. It reads grid cell records and per-trial records
// (exp.Record lines, as cmd/mptcp-exp -json writes them) and protocol
// traces (internal/trace), so the paper-style figures reproduce from
// checked-in artifacts alone, without ad-hoc scripts.
//
// Input lines are classified by shape, not by file: a line with an
// "ev" field is a trace record, one with an "algorithm" field a grid
// cell record, and one with an "id" field a trial record; anything
// else is counted and skipped. Files of different kinds can therefore
// be concatenated and fed through in one pass.
//
// Aggregation is streaming (metrics.Summary: Welford moments + P²
// quantiles), so memory stays O(groups × metrics) no matter how many
// trials or trace events flow through. Output ordering is fully
// deterministic — groups sort by their dimension key, metrics
// alphabetically — so two runs over the same input render identical
// bytes, which CI asserts.
package analyze

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"mptcp/internal/metrics"
)

// line is the union of the JSONL fields the analyzer reads; unused
// fields stay zero and fields it does not read are ignored.
// Pointer-free numeric fields suffice because zero values are never
// ambiguous with real dimensions here (a trial is identified by ID, a
// trace record by Ev).
type line struct {
	// Trace records (internal/trace).
	Ev      string  `json:"ev"`
	Label   string  `json:"label"` // meta lines: cell label
	Dropped int64   `json:"dropped"`
	RTTSec  float64 `json:"rtt_s"`
	Cwnd    float64 `json:"cwnd"`

	// Grid cell records and trial records (exp.Record's JSON names).
	ID        string             `json:"id"`
	Algorithm string             `json:"algorithm"`
	Topology  string             `json:"topology"`
	Scenario  string             `json:"scenario"`
	Scheduler string             `json:"scheduler"`
	Workload  string             `json:"workload"`
	RecvBuf   int64              `json:"recv_buf"`
	Metrics   map[string]float64 `json:"metrics"`
	WallSec   float64            `json:"wall_s"`
}

// group is one aggregation bucket: all records sharing the same
// dimension tuple, each metric summarised across them.
type group struct {
	key  string // rendered dimension tuple, also the sort key
	dims []string
	mets map[string]*metrics.Summary
	n    int64 // records folded in
}

func (g *group) met(name string) *metrics.Summary {
	m := g.mets[name]
	if m == nil {
		m = metrics.NewSummary()
		g.mets[name] = m
	}
	return m
}

// Report is the aggregate of one analysis pass.
type Report struct {
	// Cells aggregates grid cell records by (id, algorithm, topology,
	// scenario, scheduler, workload, recv_buf); Trials aggregates
	// per-trial records by id; Traces aggregates trace events by
	// (label, ev).
	cells  map[string]*group
	trials map[string]*group
	traces map[string]*group

	// CellLines/TrialLines/TraceLines/Skipped count the classified
	// input; surfacing them keeps silent truncation impossible.
	CellLines  int64
	TrialLines int64
	TraceLines int64
	Skipped    int64

	// traceLabel is the current cell label while scanning a trace file:
	// meta lines carry it, subsequent event lines inherit it.
	traceLabel string
}

// NewReport returns an empty report ready to Read input into.
func NewReport() *Report {
	return &Report{
		cells:  map[string]*group{},
		trials: map[string]*group{},
		traces: map[string]*group{},
	}
}

// Read consumes one JSONL stream, classifying and folding in every
// line. It may be called once per input file; aggregation spans calls.
func (r *Report) Read(in io.Reader) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			r.Skipped++
			continue
		}
		switch {
		case l.Ev != "":
			r.addTrace(&l)
		case l.Algorithm != "":
			r.addCell(&l)
		case l.ID != "":
			r.addTrial(&l)
		default:
			r.Skipped++
		}
	}
	return sc.Err()
}

func getGroup(m map[string]*group, dims []string) *group {
	key := strings.Join(dims, "\x00")
	g := m[key]
	if g == nil {
		g = &group{key: key, dims: append([]string(nil), dims...), mets: map[string]*metrics.Summary{}}
		m[key] = g
	}
	return g
}

func (r *Report) addCell(l *line) {
	r.CellLines++
	g := getGroup(r.cells, []string{
		l.ID, l.Algorithm, l.Topology, l.Scenario, l.Scheduler, l.Workload,
		strconv.FormatInt(l.RecvBuf, 10),
	})
	g.n++
	for k, v := range l.Metrics {
		g.met(k).Add(v)
	}
}

func (r *Report) addTrial(l *line) {
	r.TrialLines++
	g := getGroup(r.trials, []string{l.ID})
	g.n++
	for k, v := range l.Metrics {
		g.met(k).Add(v)
	}
	if l.WallSec > 0 {
		g.met("wall_s").Add(l.WallSec)
	}
}

func (r *Report) addTrace(l *line) {
	r.TraceLines++
	if l.Ev == "meta" {
		r.traceLabel = l.Label
		if l.Dropped > 0 {
			g := getGroup(r.traces, []string{r.traceLabel, "(dropped)"})
			g.n += l.Dropped
		}
		return
	}
	g := getGroup(r.traces, []string{r.traceLabel, l.Ev})
	g.n++
	switch l.Ev {
	case "rtt":
		g.met("rtt_s").Add(l.RTTSec)
	case "cwnd", "penalty":
		g.met("cwnd").Add(l.Cwnd)
	}
}

// sortedGroups returns m's groups in deterministic key order.
func sortedGroups(m map[string]*group) []*group {
	out := make([]*group, 0, len(m))
	for _, g := range m {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func sortedMetricNames(g *group) []string {
	names := make([]string, 0, len(g.mets))
	for k := range g.mets {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// fmtG renders a float with strconv's shortest round-trippable form —
// the same convention as the repo's other deterministic encoders. NaN
// (metrics.Summary's "no observations" sentinel, e.g. Min/Max of an
// empty summary) renders as "-".
func fmtG(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func summaryCols(s *metrics.Summary) []string {
	return []string{
		strconv.FormatInt(s.N(), 10),
		fmtG(s.Mean()), fmtG(s.Stddev()),
		fmtG(s.Min()), fmtG(s.P50()), fmtG(s.P95()), fmtG(s.P99()), fmtG(s.Max()),
	}
}

var cellHeader = []string{"id", "algorithm", "topology", "scenario", "scheduler", "workload", "recv_buf",
	"metric", "n", "mean", "stddev", "min", "p50", "p95", "p99", "max"}
var trialHeader = []string{"id",
	"metric", "n", "mean", "stddev", "min", "p50", "p95", "p99", "max"}
var traceHeader = []string{"label", "ev", "count",
	"metric", "n", "mean", "stddev", "min", "p50", "p95", "p99", "max"}

// rows flattens a group map to table rows: one row per (group, metric),
// or a single count-only row for metric-less groups (trace event
// counts).
func rows(m map[string]*group, pad int, countCol bool) [][]string {
	var out [][]string
	for _, g := range sortedGroups(m) {
		base := append([]string(nil), g.dims...)
		if countCol {
			base = append(base, strconv.FormatInt(g.n, 10))
		}
		names := sortedMetricNames(g)
		if len(names) == 0 {
			row := append(append([]string(nil), base...), make([]string, pad)...)
			out = append(out, row)
			continue
		}
		for _, name := range names {
			row := append(append([]string(nil), base...), name)
			row = append(row, summaryCols(g.mets[name])...)
			out = append(out, row)
		}
	}
	return out
}

// Sections returns the report as titled tables, empty sections omitted:
// grid cells, trials, then traces.
func (r *Report) Sections() []Section {
	var out []Section
	if len(r.cells) > 0 {
		out = append(out, Section{
			Title:  fmt.Sprintf("Grid cells (%d records)", r.CellLines),
			Header: cellHeader,
			Rows:   rows(r.cells, 9, false),
		})
	}
	if len(r.trials) > 0 {
		out = append(out, Section{
			Title:  fmt.Sprintf("Trials (%d records)", r.TrialLines),
			Header: trialHeader,
			Rows:   rows(r.trials, 9, false),
		})
	}
	if len(r.traces) > 0 {
		out = append(out, Section{
			Title:  fmt.Sprintf("Trace events (%d records)", r.TraceLines),
			Header: traceHeader,
			Rows:   rows(r.traces, 9, true),
		})
	}
	return out
}

// Section is one titled table of the report.
type Section struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render writes the report as fixed-width text tables. Output is a pure
// function of the aggregated input.
func (r *Report) Render(w io.Writer) error {
	if err := RenderSections(w, r.Sections()); err != nil {
		return err
	}
	if r.Skipped > 0 {
		fmt.Fprintf(w, "\n(%d unrecognised lines skipped)\n", r.Skipped)
	}
	return nil
}

// renderSection writes one titled fixed-width table.
func renderSection(w io.Writer, sec Section) error {
	fmt.Fprintf(w, "== %s ==\n", sec.Title)
	widths := make([]int, len(sec.Header))
	for i, h := range sec.Header {
		widths[i] = len(h)
	}
	for _, row := range sec.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	emit := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := emit(sec.Header); err != nil {
		return err
	}
	for _, row := range sec.Rows {
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes every section as CSV, sections separated by a blank
// line, each starting with its header row. Same determinism contract as
// Render.
func (r *Report) WriteCSV(w io.Writer) error {
	return WriteCSVSections(w, r.Sections())
}

func csvRow(w io.Writer, cells []string) error {
	quoted := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		quoted[i] = c
	}
	_, err := fmt.Fprintln(w, strings.Join(quoted, ","))
	return err
}
