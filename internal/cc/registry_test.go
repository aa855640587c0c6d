package cc

import (
	"strings"
	"testing"

	"mptcp/internal/core"
	"mptcp/internal/registry"
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

// TestHooksMetadataMatchesImplementations: the protocol core finds an
// algorithm's hooks by type assertion on what New builds, so a
// constructor that returned a value where the hooks have pointer
// receivers would silently drop them.
func TestHooksMetadataMatchesImplementations(t *testing.T) {
	want := map[string][2]bool{ // {RTTObserver, LossObserver}
		"OLIA":   {false, true},
		"WVEGAS": {true, true},
	}
	for _, name := range Names() {
		alg, _ := New(name)
		_, rtt := alg.(core.RTTObserver)
		_, loss := alg.(core.LossObserver)
		if got := [2]bool{rtt, loss}; got != want[name] {
			t.Errorf("%s: (RTTObserver, LossObserver) = %v, want %v", name, got, want[name])
		}
	}
}

// TestHelpMentionsEveryAlgorithm: the one renderer behind mptcp-xfer
// -alg's usage text and mptcp-exp -list names every algorithm and every
// alias.
func TestHelpMentionsEveryAlgorithm(t *testing.T) {
	h := registry.Help(Infos())
	for _, info := range Infos() {
		for _, name := range append([]string{info.Name}, info.Aliases...) {
			if !strings.Contains(h, name) {
				t.Errorf("help omits %s", name)
			}
		}
	}
}
