// The grid engine: the one way an experiment enumerates, seeds, fans
// out, traces and assembles its cells. A grid declares named axes; sweep
// enumerates them row-major, derives every cell's seed from its index in
// the FULL grid, applies the Config filters, fans the selected cells out
// on the worker pool and flushes the cells' traces in cell order.
// runGrid pivots the outputs into one table on top of that; an
// experiment whose report is a figure or a hand-laid table assembles it
// from sweep's (cells, outs) itself, and one whose flows all share a
// world (oneWorld) is the single cell of a grid without axes.
//
// Determinism is by derivation, not by ordering: cell i of a run with
// base seed s always simulates with CellSeed(s, i), cells never share
// mutable state (each builds its own world and algorithm instances
// inside measure), and outputs are collected by cell index — so the
// result is bit-identical for any Parallelism and goroutine schedule.
//
// Seeds and registries: the first-declared axis varies slowest, so a
// value appended to it (a newly registered algorithm, scheduler or
// workload) appends cells and leaves every existing cell's seed alone;
// a value added to any later axis — a topology, say — renumbers the
// grid and moves every golden.
//
// Filters: Config.Scenario, Config.Sched and Config.Workload, each
// canonicalised through its catalogue (sched.Canonical for a spec),
// restrict the axis named "scenario", "scheduler" and "workload" of a
// grid that declares one, and are ignored by a grid that does not. A filter selects cells, it
// never renumbers them: a filtered run reproduces the corresponding
// cells of the full grid bit for bit. A value that is not on the axis
// panics with the axis's values rather than running zero cells.

package exp

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"mptcp/internal/scenario"
	"mptcp/internal/sched"
	"mptcp/internal/trace"
	"mptcp/internal/workload"
)

// axis is one named dimension of a grid; the name is also its table
// header and selects the Config filter that addresses it.
type axis struct {
	name string
	vals []string
}

// axisVals renders the values of a numeric axis.
func axisVals[T any](xs []T) []string {
	vals := make([]string, len(xs))
	for i, x := range xs {
		vals[i] = fmt.Sprint(x)
	}
	return vals
}

// grid declares one experiment's cells.
type grid struct {
	id    string
	title string // of the result table
	axes  []axis
	// pivot names the axis whose values head runGrid's value columns;
	// "" means "topology".
	pivot string
	// cols head the per-cell value columns of a grid without a pivot
	// axis.
	cols []string
	// dims are the Record dimensions that every cell of the grid shares
	// and no axis varies (the fleet's one topology, say).
	dims Record
}

// gridCell is one selected cell. The embedded Config is the run's with
// Seed replaced by CellSeed(base, full-grid index).
type gridCell struct {
	Config
	base int64    // the run's base seed, for workloads shared across cells
	at   []int    // the cell's index on each axis
	vals []string // the cell's value on each axis
	tr   *trace.Tracer
}

// world builds the cell's simulator and network. With Config.TraceW set
// the world carries a cell-private tracer on the simulator's clock,
// labelled with the cell's axis values, which sweep flushes; a cell
// that builds its simulators some other way (fleet) stays untraced.
func (c *gridCell) world() *world {
	w := newWorld(c.Seed)
	if c.TraceW != nil {
		w.tr = trace.New(0, trace.SimNow(w.s))
		w.tr.SetLabel(strings.Join(c.vals, "/"))
		c.tr = w.tr
	}
	return w
}

// record is cell c's Record with metrics mets: g.dims, with every
// dimension that an axis of the same name varies (algorithm, topology,
// scenario, scheduler, workload, recvbuf) set to the cell's value on it.
// The Config filters select cells by those same axis values, so a
// filtered run's lines are exactly the full run's lines that carry the
// filter's value.
func (g grid) record(c *gridCell, mets map[string]float64) Record {
	r := g.dims
	r.Metrics = mets
	for i, a := range g.axes {
		switch v := c.vals[i]; a.name {
		case "algorithm":
			r.Algorithm = v
		case "topology":
			r.Topology = v
		case "scenario":
			r.Scenario = v
		case "scheduler":
			r.Scheduler = v
		case "workload":
			r.Workload = v
		case "recvbuf":
			r.RecvBuf, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return r
}

// filter returns the value cfg restricts the axis called name to, ""
// for none, canonicalised through the axis's catalogue. A value the
// catalogue does not know comes back as given, to fail as no column.
func (cfg Config) filter(name string) string {
	switch name {
	case "scenario":
		if s, err := scenario.Build(cfg.Scenario, 1); err == nil {
			return s.Name
		}
		return cfg.Scenario
	case "workload":
		if w, err := workload.Build(cfg.Workload, 1); err == nil {
			return w.Name()
		}
		return cfg.Workload
	case "scheduler":
		if c, err := sched.Canonical(cfg.Sched); err == nil {
			return c
		}
		return cfg.Sched
	}
	return ""
}

// cells enumerates the grid row-major and returns the cells cfg's
// filters select, each seeded by its full-grid index.
func (g grid) cells(cfg Config) []*gridCell {
	want := make([]string, len(g.axes))
	total := 1
	for i, a := range g.axes {
		want[i] = cfg.filter(a.name)
		if want[i] != "" && !slices.Contains(a.vals, want[i]) {
			article := "a"
			if strings.ContainsRune("aeiou", rune(g.id[0])) {
				article = "an"
			}
			panic(fmt.Sprintf("exp: %s %q is not %s %s column (have %v)", a.name, want[i], article, g.id, a.vals))
		}
		total *= len(a.vals)
	}
	var sel []*gridCell
	at, vals := make([]int, len(g.axes)), make([]string, len(g.axes))
	for idx := 0; idx < total; idx++ {
		keep := true
		for i, rem := len(g.axes)-1, idx; i >= 0; i-- {
			a := g.axes[i].vals
			at[i], rem = rem%len(a), rem/len(a)
			vals[i] = a[at[i]]
			keep = keep && (want[i] == "" || want[i] == vals[i])
		}
		if keep {
			c := &gridCell{Config: cfg, base: cfg.Seed, at: slices.Clone(at), vals: slices.Clone(vals)}
			c.Seed = CellSeed(cfg.Seed, idx)
			sel = append(sel, c)
		}
	}
	return sel
}

// sweep runs the cells of g that cfg selects through measure on cfg's
// worker pool and returns them with their outputs, both in cell order,
// never goroutine order. measure must build everything it simulates from
// its cell — the world with c.world(), algorithm instances afresh — since
// cells run concurrently.
//
// A traced cell's events go to cfg.TraceW as soon as it and every cell
// before it are done: in cell order, so the trace bytes, like the
// outputs, are the same at any Parallelism, and held in memory only
// until then. Flush is a no-op on an untraced cell.
func sweep[T any](res *Result, cfg Config, g grid, measure func(*gridCell) T) ([]*gridCell, []T) {
	cfg = cfg.norm()
	cells := g.cells(cfg)
	outs := make([]T, len(cells))
	var flushErr error
	inOrder(len(cells), cfg.Parallelism, func(i int) { outs[i] = measure(cells[i]) }, func(i int) {
		if flushErr == nil {
			flushErr = cells[i].tr.Flush(cfg.TraceW)
		}
		cells[i].tr = nil // the returned cells must not keep its events alive
	})
	if flushErr != nil {
		res.note("trace flush failed: %v", flushErr)
	}
	return cells, outs
}

// oneWorld runs an experiment whose flows all share one simulated world
// as the only cell of a grid without axes (seed CellSeed(base, 0)); run
// writes the report straight into res.
func oneWorld(cfg Config, id string, run func(c *gridCell, res *Result)) *Result {
	res := newResult(id)
	sweep(res, cfg, grid{id: id}, func(c *gridCell) struct{} {
		run(c, res)
		return struct{}{}
	})
	return res
}

// runGrid sweeps g and pivots the outputs into one table: report adds
// each cell's headline metrics (and, in the cross-product grids, its
// g.record) to res and returns its table text. The table has one row per
// combination of every axis but the pivot, whose values are the columns.
func runGrid[T any](cfg Config, g grid, measure func(*gridCell) T, report func(res *Result, c *gridCell, out T) []string) *Result {
	res := newResult(g.id)
	cells, outs := sweep(res, cfg, g, measure)

	pivotName := g.pivot
	if pivotName == "" {
		pivotName = "topology"
	}
	table := Table{Title: g.title}
	pivot := -1
	for i, a := range g.axes {
		if a.name == pivotName {
			pivot = i
		} else {
			table.Cols = append(table.Cols, a.name)
		}
	}
	if pivot >= 0 {
		table.Cols = append(table.Cols, g.axes[pivot].vals...)
	} else {
		table.Cols = append(table.Cols, g.cols...)
	}
	rowOf := map[string]int{}
	for i, c := range cells {
		var head []string
		for j, v := range c.vals {
			if j != pivot {
				head = append(head, v)
			}
		}
		key := strings.Join(head, "\x00")
		ri, ok := rowOf[key]
		if !ok {
			ri = len(table.Rows)
			rowOf[key] = ri
			table.Rows = append(table.Rows, head)
		}
		table.Rows[ri] = append(table.Rows[ri], report(res, c, outs[i])...)
	}
	res.Tables = append(res.Tables, table)
	return res
}
