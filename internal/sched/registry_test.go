package sched

import (
	"strings"
	"testing"
)

// The catalogue's order and lookup rule are pinned with the other
// catalogues' in internal/registry's TestCatalogues; these tests cover
// what only this catalogue has.

func TestNewByCanonicalName(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, s.Name())
		}
	}
}

func TestInfoMetadataComplete(t *testing.T) {
	infos := Infos()
	if len(infos) != len(Names()) {
		t.Fatalf("Infos() has %d entries, want %d", len(infos), len(Names()))
	}
	for _, info := range infos {
		if info.Desc == "" || info.Ref == "" {
			t.Errorf("%s: metadata incomplete: %+v", info.Name, info)
		}
	}
	// One line per scheduler: the frozen bandit has no provenance line
	// (its table's comment carries that).
	help := Help()
	for _, name := range Names() {
		if !strings.Contains(help, "  "+name+" ") {
			t.Errorf("Help() misses %s", name)
		}
	}
	if lines := strings.Count(help, "\n"); lines != len(Names()) {
		t.Errorf("Help() has %d lines, want %d:\n%s", lines, len(Names()), help)
	}
}

func TestParseSpecs(t *testing.T) {
	cases := []struct {
		spec string
		name string
		opts Options
	}{
		{"minrtt", "minrtt", Options{}},
		{"minrtt+otr", "minrtt", Options{OpportunisticRetx: true}},
		{"MinRTT+PEN", "minrtt", Options{Penalize: true}},
		{"minrtt+otr+pen", "minrtt", Options{OpportunisticRetx: true, Penalize: true}},
		{"rr+pen+otr", "roundrobin", Options{OpportunisticRetx: true, Penalize: true}},
		{"redundant", "redundant", Options{}},
	}
	for _, tc := range cases {
		s, opts, err := Parse(tc.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		if s.Name() != tc.name || opts != tc.opts {
			t.Errorf("Parse(%q) = (%s, %+v), want (%s, %+v)", tc.spec, s.Name(), opts, tc.name, tc.opts)
		}
	}
	for _, bad := range []string{"minrtt+bogus", "nope+otr", "+otr"} {
		if _, _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestCanonicalNormalisesSpecs(t *testing.T) {
	for spec, want := range map[string]string{
		"RR":             "roundrobin",
		"MinRTT+pen+otr": "minrtt+otr+pen",
		"dup":            "redundant",
		"minrtt+otr+pen": "minrtt+otr+pen",
	} {
		got, err := Canonical(spec)
		if err != nil || got != want {
			t.Errorf("Canonical(%q) = (%q, %v), want %q", spec, got, err, want)
		}
	}
	if _, err := Canonical("bogus+otr"); err == nil {
		t.Error("Canonical(bogus+otr) should fail")
	}
}

func TestOptionsStringRoundTrips(t *testing.T) {
	for _, o := range []Options{{}, {OpportunisticRetx: true}, {Penalize: true}, {OpportunisticRetx: true, Penalize: true}} {
		spec := "minrtt" + o.String()
		_, got, err := Parse(spec)
		if err != nil || got != o {
			t.Errorf("Parse(%q) = (%+v, %v), want %+v", spec, got, err, o)
		}
	}
}
