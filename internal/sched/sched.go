// Package sched is the pluggable packet-scheduler subsystem: a registry
// of named scheduler constructors with per-scheduler metadata, the
// scheduler contract both endpoint stacks dispatch through, and the
// paper's two receive-buffer-blocking countermeasures (opportunistic
// retransmission and subflow penalization) as composable options.
//
// The paper's implementation section (§6) shows that coupled congestion
// control alone is not enough on real paths: with a single shared
// receive buffer, a segment sent on a slow subflow head-of-line-blocks
// the whole connection once the buffer fills behind it. Which subflow a
// segment is assigned to — the scheduler — is therefore a co-equal
// design axis to the congestion controller (Hurtig et al.; the
// congestion-control-and-scheduling survey in PAPERS.md), and the two
// countermeasures the paper deploys when blocking happens anyway are
// scheduler-adjacent machinery:
//
//   - opportunistic retransmission: re-send the segment the receive
//     window is stuck on (the data-level cumulative ack) on a faster
//     subflow, so the buffer drains without waiting for the slow path;
//   - subflow penalization: halve the congestion window of the subflow
//     that caused the blocking, rate-limited to once per RTT, so it
//     stops re-filling the buffer with far-ahead segments.
//
// One catalogue (below) lists every scheduler's constructor and Info
// record; New resolves names by internal/registry's rule, and
// Names/Infos/Help drive CLI help and the schedgrid experiment. The
// learned "bandit" entry (learned.go) keeps its frozen policy table
// beside it.
//
// A Scheduler sees subflows as neutral View records (window, in-flight,
// smoothed RTT, sendability) plus a connection-level Ctx (the shared
// receive buffer's remaining headroom), so one implementation serves
// both the simulator stack (internal/transport) and the UDP userspace
// stack (internal/mptcpnet). Scheduler instances returned by New are
// fresh per call and owned by exactly one connection; implementations
// that keep state must never be shared across connections.
package sched

import (
	"fmt"
	"strings"

	"mptcp/internal/registry"
)

// View is the scheduler-visible state of one subflow. Both endpoint
// stacks translate their internal subflow records into Views before
// every Pick, so schedulers stay stack-agnostic.
type View struct {
	// Cwnd is the congestion window in packets (fractional during
	// congestion avoidance).
	Cwnd float64
	// Inflight is the number of unacknowledged packets outstanding.
	Inflight int64
	// SRTT is the smoothed round-trip estimate in seconds; 0 means no
	// sample has been taken yet (schedulers treat unmeasured as slowest,
	// matching the Linux minRTT scheduler).
	SRTT float64
	// Sendable reports whether the subflow may carry *new* data at all:
	// false while it is in fast recovery or post-RTO repair, when its
	// transmissions are loss-recovery machinery, not scheduling.
	Sendable bool
	// Sent is the cumulative count of segments ever assigned to the
	// subflow (its sndNxt) — the round-robin fairness measure.
	Sent int64
}

// window is the effective congestion window in whole packets, never
// below one (a subflow may always keep one packet in flight).
func (v View) window() int64 {
	w := int64(v.Cwnd)
	if w < 1 {
		w = 1
	}
	return w
}

// Space reports whether the subflow can accept a new segment right now:
// sendable and with congestion-window room.
func (v View) Space() bool {
	return v.Sendable && v.Inflight < v.window()
}

// Ctx is the connection-level state shared by all subflows of a Pick.
type Ctx struct {
	// Window is the connection-level flow-control headroom in segments:
	// how many new data segments may still be assigned before the shared
	// receive buffer binds. Very large when the buffer is unconstrained.
	// Blocking-aware schedulers (BLEST) compare it against what a slow
	// subflow would strand in the buffer.
	Window int64
}

// Scheduler selects which subflow carries the next new data segment.
type Scheduler interface {
	// Name returns the canonical registry name.
	Name() string
	// Pick returns the index of the subflow to assign the next segment
	// to, or -1 when no subflow should send now (every subflow is
	// window-limited, in recovery, or sending would head-of-line-block
	// the shared receive buffer). Pick must not retain subs.
	Pick(ctx Ctx, subs []View) int
}

// Options are the receive-buffer-blocking countermeasures of the
// paper's §6, composable with any scheduler. Both endpoint stacks apply
// them when the connection is flow-control-blocked on the shared
// receive buffer.
type Options struct {
	// OpportunisticRetx re-sends the segment the receive window is stuck
	// on (the data-level cumulative ack) on the fastest other subflow
	// with window space, at most once per blocking segment.
	OpportunisticRetx bool
	// Penalize halves the congestion window of the subflow whose
	// un-delivered segment is blocking the receive buffer, at most once
	// per that subflow's smoothed RTT.
	Penalize bool
}

// Any reports whether at least one countermeasure is enabled.
func (o Options) Any() bool { return o.OpportunisticRetx || o.Penalize }

// String renders the canonical spec suffix ("", "+otr", "+pen",
// "+otr+pen"); Parse accepts it back.
func (o Options) String() string {
	var sb strings.Builder
	if o.OpportunisticRetx {
		sb.WriteString("+otr")
	}
	if o.Penalize {
		sb.WriteString("+pen")
	}
	return sb.String()
}

// Info is the registry metadata of one scheduler.
type Info struct {
	// Name is the canonical (lower-case) scheduler name.
	Name string
	// Aliases are alternative names accepted by New.
	Aliases []string
	// Desc is a one-line description for CLI help and docs.
	Desc string
	// Ref names the scheduler's origin (Linux scheduler module, paper).
	Ref string
}

type entry struct {
	Info
	ctor func() Scheduler
}

var schedulers = registry.New[entry]("sched", "scheduler")

// The catalogue, in presentation order. Every constructor returns a
// fresh instance per call.
func init() {
	for _, e := range []entry{
		{Info{Name: "firstfit", Aliases: []string{"stripe", "fill"}, Ref: "paper §6 striping",
			Desc: "fill subflows with window space in configuration order"},
			func() Scheduler { return FirstFit{} }},
		{Info{Name: "minrtt", Aliases: []string{"lowrtt", "default"}, Ref: "Linux mptcp_sched default",
			Desc: "prefer the subflow with the smallest smoothed RTT"},
			func() Scheduler { return MinRTT{} }},
		{Info{Name: "roundrobin", Aliases: []string{"rr"}, Ref: "Linux mptcp_rr",
			Desc: "rotate segments across subflows by least segments assigned"},
			func() Scheduler { return RoundRobin{} }},
		{Info{Name: "wcwnd", Aliases: []string{"weighted", "maxspace"}, Ref: "cwnd-weighted striping",
			Desc: "prefer the subflow with the most free congestion-window space"},
			func() Scheduler { return WeightedCwnd{} }},
		{Info{Name: "redundant", Aliases: []string{"dup"}, Ref: "Linux mptcp_redundant",
			Desc: "duplicate every segment on all subflows with window space"},
			func() Scheduler { return Redundant{} }},
		{Info{Name: "blest", Aliases: []string{"blocking-estimation"}, Ref: "Ferlin et al., BLEST (IFIP Networking 2016)",
			Desc: "minRTT that skips a slow subflow when sending on it would HoL-block the shared receive buffer"},
			func() Scheduler { return &BLEST{} }},
		{Info{Name: "bandit", Aliases: []string{"learned"}, Ref: "learned scheduling, cf. arXiv:2309.09372",
			Desc: "offline-trained contextual bandit over SRTT ratio, cwnd headroom and receive-window pressure"},
			func() Scheduler { return Bandit{&trainedBandit} }},
	} {
		schedulers.Add(e, e.Name, e.Aliases...)
	}
}

// New constructs a fresh instance of the scheduler registered under
// name (or one of its aliases).
func New(name string) (Scheduler, error) {
	e, err := schedulers.Lookup(name)
	if err != nil {
		return nil, err
	}
	return e.ctor(), nil
}

// MustNew is New for callers with a statically known name; it panics on
// lookup failure.
func MustNew(name string) Scheduler {
	s, err := New(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Parse resolves a scheduler spec of the form
//
//	name[+otr][+pen]
//
// into a fresh scheduler instance and the countermeasure options, e.g.
// "minrtt+otr+pen" (the paper's §6 configuration) or plain "redundant".
// Option tokens — otr/oppretx (opportunistic retransmission) and
// pen/penalize (subflow penalization) — may appear in any order after
// the scheduler name; everything is case-insensitive.
func Parse(spec string) (Scheduler, Options, error) {
	parts := strings.Split(strings.TrimSpace(spec), "+")
	s, err := New(parts[0])
	if err != nil {
		return nil, Options{}, err
	}
	var o Options
	for _, tok := range parts[1:] {
		switch strings.ToLower(strings.TrimSpace(tok)) {
		case "otr", "oppretx", "opportunistic":
			o.OpportunisticRetx = true
		case "pen", "penalize", "penalty":
			o.Penalize = true
		default:
			return nil, Options{}, fmt.Errorf("sched: unknown option %q in spec %q (have otr, pen)", tok, spec)
		}
	}
	return s, o, nil
}

// Canonical resolves a spec to its canonical form — the registered
// scheduler's canonical name plus the option suffix in fixed order —
// so aliases, case variants and reordered options compare equal:
// "RR+pen+otr" → "roundrobin+otr+pen". Grid filters canonicalise user
// input with this before matching column names.
func Canonical(spec string) (string, error) {
	s, opts, err := Parse(spec)
	if err != nil {
		return "", err
	}
	return s.Name() + opts.String(), nil
}

// Names lists the canonical scheduler names in catalogue order.
func Names() []string { return schedulers.Names() }

// Infos returns the registered metadata in the same order as Names.
func Infos() []Info {
	var out []Info
	for _, e := range schedulers.Entries() {
		out = append(out, e.Info)
	}
	return out
}

// Help renders a one-line-per-scheduler summary for CLI usage text.
func Help() string {
	var sb strings.Builder
	for _, info := range Infos() {
		fmt.Fprintf(&sb, "  %-12s %s (%s)\n", info.Name, info.Desc, info.Ref)
	}
	return sb.String()
}
