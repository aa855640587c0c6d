package cc

import (
	"reflect"
	"strings"
	"testing"

	"mptcp/internal/core"
)

// The catalogue's order and lookup rule are pinned with the other
// catalogues' in internal/registry's TestCatalogues; these tests cover
// what only this catalogue has.

func TestNewByCanonicalName(t *testing.T) {
	for _, name := range Names() {
		alg, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if alg.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, alg.Name())
		}
	}
}

func TestNewReturnsFreshInstances(t *testing.T) {
	// Stateful algorithms are owned by one connection each; the
	// constructor must never hand out a shared instance.
	for _, name := range []string{"MPTCP", "OLIA", "WVEGAS"} {
		a, _ := New(name)
		b, _ := New(name)
		if a == b {
			t.Errorf("New(%q) returned the same instance twice", name)
		}
	}
}

func TestInfoMetadataComplete(t *testing.T) {
	infos := Infos()
	if len(infos) != len(Names()) {
		t.Fatalf("got %d infos, want %d", len(infos), len(Names()))
	}
	for _, info := range infos {
		if info.Desc == "" || info.Ref == "" {
			t.Errorf("%s: missing Desc/Ref metadata", info.Name)
		}
	}
}

func TestHooksMetadataMatchesImplementations(t *testing.T) {
	want := map[string][]string{
		"REGULAR":     nil,
		"EWTCP":       nil,
		"COUPLED":     nil,
		"SEMICOUPLED": nil,
		"MPTCP":       nil,
		"OLIA":        {"OnLoss"},
		"BALIA":       nil,
		"WVEGAS":      {"OnRTTSample", "OnLoss"},
	}
	for _, info := range Infos() {
		if !reflect.DeepEqual(info.Hooks, want[info.Name]) {
			t.Errorf("%s hooks = %v, want %v", info.Name, info.Hooks, want[info.Name])
		}
	}
	if info, _ := Lookup("WVEGAS"); !info.DelayBased {
		t.Error("WVEGAS should be marked delay-based")
	}
}

func TestHelpMentionsEveryAlgorithm(t *testing.T) {
	h := Help()
	for _, name := range Names() {
		if !strings.Contains(h, name) {
			t.Errorf("Help() omits %s", name)
		}
	}
}

func TestRegisterRejectsNameMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched constructor name did not panic")
		}
	}()
	register(entry{Info{Name: "NOT-REGULAR"}, func() core.Algorithm { return core.Regular{} }})
}
