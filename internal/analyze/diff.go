package analyze

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"mptcp/internal/metrics"
)

// Diff compares two reports cell-by-cell: for every dimension tuple
// present in either input and every metric recorded under it, the diff
// reports both sides' mean and tail quantiles plus their absolute and
// relative deltas. Cells or metrics present on only one side render "-"
// on the missing side, so an A/B comparison surfaces coverage drift as
// loudly as value drift. Ordering is deterministic (group key, then
// metric name), matching the report's own contract.
func Diff(a, b *Report) []Section {
	var out []Section
	if sec, ok := diffGroups(
		fmt.Sprintf("Grid cell diff (A: %d records, B: %d records)", a.CellLines, b.CellLines),
		cellHeader[:7], a.cells, b.cells); ok {
		out = append(out, sec)
	}
	if sec, ok := diffGroups(
		fmt.Sprintf("Trial diff (A: %d records, B: %d records)", a.TrialLines, b.TrialLines),
		trialHeader[:1], a.trials, b.trials); ok {
		out = append(out, sec)
	}
	return out
}

var diffValueHeader = []string{"metric", "n_a", "n_b",
	"mean_a", "mean_b", "dmean", "dmean_pct",
	"p50_a", "p50_b", "dp50", "p99_a", "p99_b", "dp99"}

func diffGroups(title string, dimHeader []string, am, bm map[string]*group) (Section, bool) {
	if len(am) == 0 && len(bm) == 0 {
		return Section{}, false
	}
	keys := make([]string, 0, len(am)+len(bm))
	for k := range am {
		keys = append(keys, k)
	}
	for k := range bm {
		if _, dup := am[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	sec := Section{Title: title, Header: append(append([]string(nil), dimHeader...), diffValueHeader...)}
	for _, k := range keys {
		ga, gb := am[k], bm[k]
		dims := ga
		if dims == nil {
			dims = gb
		}
		for _, name := range unionMetricNames(ga, gb) {
			row := append([]string(nil), dims.dims...)
			row = append(row, name)
			var sa, sb *metrics.Summary
			if ga != nil {
				sa = ga.mets[name]
			}
			if gb != nil {
				sb = gb.mets[name]
			}
			row = append(row, countCell(sa), countCell(sb))
			row = append(row, deltaCells(sa, sb, (*metrics.Summary).Mean)...)
			row = append(row, relCell(sa, sb))
			row = append(row, deltaCells(sa, sb, (*metrics.Summary).P50)...)
			row = append(row, deltaCells(sa, sb, (*metrics.Summary).P99)...)
			sec.Rows = append(sec.Rows, row)
		}
	}
	return sec, true
}

// absent reports whether a metric is missing on one side of the diff: no
// summary, or one with no samples.
func absent(s *metrics.Summary) bool { return s == nil || s.N() == 0 }

func countCell(s *metrics.Summary) string {
	if absent(s) {
		return "-"
	}
	return strconv.FormatInt(s.N(), 10)
}

// deltaCells renders [a, b, b−a] for one statistic, "-" where a side is
// missing.
func deltaCells(a, b *metrics.Summary, stat func(*metrics.Summary) float64) []string {
	ca, cb, d := "-", "-", "-"
	if !absent(a) {
		ca = fmtG(stat(a))
	}
	if !absent(b) {
		cb = fmtG(stat(b))
	}
	if !absent(a) && !absent(b) {
		d = fmtG(stat(b) - stat(a))
	}
	return []string{ca, cb, d}
}

// relCell renders the mean's relative change in percent; "-" when either
// side is missing or the baseline mean is zero.
func relCell(a, b *metrics.Summary) string {
	if absent(a) || absent(b) || a.Mean() == 0 {
		return "-"
	}
	return fmtG((b.Mean() - a.Mean()) / math.Abs(a.Mean()) * 100)
}

func unionMetricNames(ga, gb *group) []string {
	seen := map[string]bool{}
	var names []string
	add := func(g *group) {
		if g == nil {
			return
		}
		for k := range g.mets {
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
	}
	add(ga)
	add(gb)
	sort.Strings(names)
	return names
}

// RenderSections writes sections in the report's fixed-width table
// style; RenderDiff and Report.Render share it, so diffs inherit the
// byte-determinism contract.
func RenderSections(w io.Writer, secs []Section) error {
	for si, sec := range secs {
		if si > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := renderSection(w, sec); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVSections writes sections as CSV, the same shape Report.WriteCSV
// produces for its own sections.
func WriteCSVSections(w io.Writer, secs []Section) error {
	for si, sec := range secs {
		if si > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := csvRow(w, sec.Header); err != nil {
			return err
		}
		for _, row := range sec.Rows {
			if err := csvRow(w, row); err != nil {
				return err
			}
		}
	}
	return nil
}
