// Package registry is the one catalogue mechanism behind every named
// axis of the experiment grids: congestion controllers (internal/cc),
// schedulers (internal/sched), scenario scripts (internal/scenario),
// application workloads (internal/workload) and experiments
// (internal/exp).
//
// A Set is filled once, during package initialisation, and read-only
// afterwards, so it needs no lock. Cell seeds derive from a value's
// position on its axis, which makes both rules below part of the
// determinism contract:
//
//   - order: Names and Entries return entries in insertion order, the
//     order the catalogue is written in;
//   - lookup: surrounding space is trimmed, case is ignored, an alias
//     resolves to its entry, and an unknown name is an error that lists
//     the catalogue.
package registry

import (
	"fmt"
	"slices"
	"strings"
)

// Set is an ordered catalogue of named entries.
type Set[E any] struct {
	pkg, kind string // error prefix and noun: "cc", "algorithm"
	keys      [][]string
	entries   []E
}

// New returns an empty Set whose lookup errors read
// "pkg: unknown kind "name" (have a, b, …)".
func New[E any](pkg, kind string) *Set[E] {
	return &Set[E]{pkg: pkg, kind: kind}
}

// Add appends e under name and its aliases. It panics on an empty name
// and on a name or alias that is already taken, case-insensitively.
func (s *Set[E]) Add(e E, name string, aliases ...string) {
	keys := append([]string{name}, aliases...)
	for i, k := range keys {
		if k == "" || s.find(k) >= 0 || slices.ContainsFunc(keys[:i], func(p string) bool { return strings.EqualFold(p, k) }) {
			panic(fmt.Sprintf("%s: duplicate or empty %s name %q", s.pkg, s.kind, k))
		}
	}
	s.keys = append(s.keys, keys)
	s.entries = append(s.entries, e)
}

// find returns the index of the entry name or an alias equals, ignoring
// case, or -1. The scan allocates nothing; catalogues hold tens of
// names.
func (s *Set[E]) find(name string) int {
	for i, keys := range s.keys {
		for _, k := range keys {
			if strings.EqualFold(k, name) {
				return i
			}
		}
	}
	return -1
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
	out := make([]string, len(s.keys))
	for i, keys := range s.keys {
		out[i] = keys[0]
	}
	return out
}

// Entries returns the entries in insertion order.
func (s *Set[E]) Entries() []E {
	return slices.Clone(s.entries)
}
