// Package registry is the one catalogue mechanism behind every named
// axis of the experiment grids. Its catalogues are congestion
// controllers (internal/cc), schedulers (internal/sched), scenario
// scripts (internal/scenario), application workloads (internal/workload)
// and experiments (internal/exp).
//
// Every entry carries one Info record (name, aliases, provenance,
// description), and everything that lists a catalogue renders from it:
// mptcp-exp -list, mptcp-xfer's help text and DESIGN.md's tables.
//
// A Set is filled once, during package initialisation, and read-only
// afterwards, so it needs no lock. Cell seeds derive from a value's
// position on its axis, which makes both rules below part of the
// determinism contract:
//
//   - order: Names, Infos and Entries return entries in insertion
//     order, the order the catalogue is written in;
//   - lookup: surrounding space is trimmed, case is ignored, an alias
//     resolves to its entry, and an unknown name is an error that lists
//     the catalogue.
package registry

import (
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"
)

// Info is the metadata record of one catalogue entry.
type Info struct {
	// Name is the canonical name, the one grids and records carry.
	Name string
	// Aliases are other names lookup accepts.
	Aliases []string
	// Ref names the entry's origin: a section of the paper, an RFC, a
	// kernel module or a later paper.
	Ref string
	// Desc is a one-line description.
	Desc string
}

// matches reports whether name is the entry's name or one of its
// aliases, ignoring case. It allocates nothing.
func (in Info) matches(name string) bool {
	if strings.EqualFold(in.Name, name) {
		return true
	}
	for _, a := range in.Aliases {
		if strings.EqualFold(a, name) {
			return true
		}
	}
	return false
}

// Set is an ordered catalogue of named entries.
type Set[E any] struct {
	pkg, kind string // error prefix and noun: "cc", "algorithm"
	infos     []Info
	entries   []E
}

// New returns an empty Set whose lookup errors read
// "pkg: unknown kind "name" (have a, b, …)".
func New[E any](pkg, kind string) *Set[E] {
	return &Set[E]{pkg: pkg, kind: kind}
}

// Add appends e under info's name and aliases. It panics on an empty
// name and on a name or alias that is already taken, case-insensitively.
func (s *Set[E]) Add(info Info, e E) {
	keys := append([]string{info.Name}, info.Aliases...)
	for i, k := range keys {
		if k == "" || s.find(k) >= 0 || slices.ContainsFunc(keys[:i], func(p string) bool { return strings.EqualFold(p, k) }) {
			panic(fmt.Sprintf("%s: duplicate or empty %s name %q", s.pkg, s.kind, k))
		}
	}
	s.infos = append(s.infos, info)
	s.entries = append(s.entries, e)
}

// find returns the index of the entry name names, or -1. The scan
// allocates nothing; catalogues hold tens of names.
func (s *Set[E]) find(name string) int {
	return slices.IndexFunc(s.infos, func(in Info) bool { return in.matches(name) })
}

// Lookup returns the entry registered under name or one of its aliases.
func (s *Set[E]) Lookup(name string) (E, error) {
	if i := s.find(strings.TrimSpace(name)); i >= 0 {
		return s.entries[i], nil
	}
	var zero E
	return zero, fmt.Errorf("%s: unknown %s %q (have %s)", s.pkg, s.kind, name, strings.Join(s.Names(), ", "))
}

// Names returns the canonical names in insertion order.
func (s *Set[E]) Names() []string {
	out := make([]string, len(s.infos))
	for i, in := range s.infos {
		out[i] = in.Name
	}
	return out
}

// Infos returns the metadata records in insertion order.
func (s *Set[E]) Infos() []Info { return slices.Clone(s.infos) }

// Entries returns the entries in insertion order.
func (s *Set[E]) Entries() []E { return slices.Clone(s.entries) }

// Build resolves name in a catalogue of builders and returns what the
// builder it names makes of arg.
func Build[A, R any](s *Set[func(A) R], name string, arg A) (R, error) {
	b, err := s.Lookup(name)
	if err != nil {
		var zero R
		return zero, err
	}
	return b(arg), nil
}

// Must returns v, or panics with err: for names a caller knows to be
// registered.
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Help renders infos one per line — name, provenance and description in
// aligned columns, then any aliases — for -list and CLI usage text. A
// catalogue without provenance gets no column for it.
func Help(infos []Info) string {
	var nw, rw int
	for _, in := range infos {
		nw = max(nw, utf8.RuneCountInString(in.Name))
		rw = max(rw, utf8.RuneCountInString(in.Ref))
	}
	var sb strings.Builder
	for _, in := range infos {
		fmt.Fprintf(&sb, "  %-*s  ", nw, in.Name)
		if rw > 0 {
			fmt.Fprintf(&sb, "%-*s  ", rw, in.Ref)
		}
		sb.WriteString(in.Desc)
		if len(in.Aliases) > 0 {
			fmt.Fprintf(&sb, " (also %s)", strings.Join(in.Aliases, ", "))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
