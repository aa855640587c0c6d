package registry_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mptcp/internal/cc"
	"mptcp/internal/exp"
	"mptcp/internal/registry"
	"mptcp/internal/scenario"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
	"mptcp/internal/workload"
)

// catalogue is one of the tree's named catalogues as its package
// exposes it: the canonical names, and a resolver from any accepted
// spelling to the canonical name of what it builds.
type catalogue struct {
	name    string
	names   func() []string
	resolve func(string) (string, error)
	want    []string          // the canonical order, which cell seeds depend on
	aliases map[string]string // alias → canonical name
}

var catalogues = []catalogue{
	{"cc", cc.Names,
		func(n string) (string, error) {
			a, err := cc.New(n)
			if err != nil {
				return "", err
			}
			return a.Name(), nil
		},
		[]string{"REGULAR", "EWTCP", "COUPLED", "SEMICOUPLED", "MPTCP", "OLIA", "BALIA", "WVEGAS"},
		map[string]string{"UNCOUPLED": "REGULAR", "tcp": "REGULAR", "Vegas": "WVEGAS"}},
	{"sched", sched.Names,
		func(n string) (string, error) {
			s, err := sched.New(n)
			if err != nil {
				return "", err
			}
			return s.Name(), nil
		},
		[]string{"firstfit", "minrtt", "roundrobin", "wcwnd", "redundant", "blest", "bandit"},
		map[string]string{"Stripe": "firstfit", "fill": "firstfit", "lowrtt": "minrtt", "default": "minrtt", "RR": "roundrobin",
			"Weighted": "wcwnd", "maxspace": "wcwnd", "dup": "redundant", "blocking-estimation": "blest", "learned": "bandit"}},
	{"scenario", scenario.Names,
		func(n string) (string, error) {
			s, err := scenario.Build(n, sim.Second)
			return s.Name, err
		},
		[]string{"churn", "flap", "handover", "ramp"}, nil},
	{"workload", workload.Names,
		func(n string) (string, error) {
			w, err := workload.Build(n, sim.Second)
			if err != nil {
				return "", err
			}
			return w.Name(), nil
		},
		[]string{"mice", "rpc", "video", "web"}, nil},
	{"exp",
		func() []string {
			var ids []string
			for _, e := range exp.All() {
				ids = append(ids, e.ID)
			}
			return ids
		},
		func(n string) (string, error) {
			e, ok := exp.Get(n)
			if !ok {
				return "", fmt.Errorf("no experiment %q", n)
			}
			return e.ID, nil
		},
		[]string{"ablation-cap", "ablation-peracck", "ablation-reinject", "appgrid", "dynamics", "fleet", "schedgrid",
			"fig2-triangle", "fig3-mesh", "sec23-wifi3g-model", "fig5-trap", "fig8-torus", "table-dynamic",
			"fig10-server-lb", "table-server-poisson", "table-fattree", "fig12-paths", "fig13-dist", "table-bcube",
			"table-wireless-static", "fig15-wireless-compete", "sec5-wired-sim", "fig16-rtt-sweep", "fig17-mobility",
			"tournament"}, nil},
}

// TestCatalogues pins every catalogue's order and the lookup rule they
// share: case is ignored, surrounding space is trimmed, an alias
// resolves to its canonical entry, and an unknown name is an error that
// lists the catalogue (exp.Get reports a bool; the CLI points to -list).
func TestCatalogues(t *testing.T) {
	for _, c := range catalogues {
		t.Run(c.name+"/order", func(t *testing.T) {
			if got := c.names(); !reflect.DeepEqual(got, c.want) {
				t.Errorf("Names() = %v, want %v", got, c.want)
			}
		})
		t.Run(c.name+"/lookup", func(t *testing.T) {
			for _, n := range c.want {
				for _, spelling := range []string{n, strings.ToUpper(n), strings.ToLower(n), " " + strings.ToUpper(n[:1]) + strings.ToLower(n[1:]) + "\t"} {
					if got, err := c.resolve(spelling); err != nil || got != n {
						t.Errorf("resolve(%q) = (%q, %v), want %q", spelling, got, err, n)
					}
				}
			}
		})
		t.Run(c.name+"/aliases", func(t *testing.T) {
			for alias, want := range c.aliases {
				for _, spelling := range []string{alias, strings.ToUpper(alias), " " + alias + " "} {
					if got, err := c.resolve(spelling); err != nil || got != want {
						t.Errorf("resolve(%q) = (%q, %v), want %q", spelling, got, err, want)
					}
				}
			}
		})
		t.Run(c.name+"/unknown", func(t *testing.T) {
			_, err := c.resolve("bogus")
			if err == nil {
				t.Fatal("resolve(bogus) succeeded")
			}
			if c.name == "exp" {
				return
			}
			for _, n := range c.want {
				if !strings.Contains(err.Error(), n) {
					t.Errorf("error does not list %s: %v", n, err)
				}
			}
		})
	}
}

// TestSetRules pins the mechanism on a catalogue of its own: entries
// come back in insertion order, and the one error format names the
// package, the kind and every canonical name.
func TestSetRules(t *testing.T) {
	s := registry.New[int]("pkg", "thing")
	s.Add(2, "zeta", "z")
	s.Add(0, "Alpha")
	s.Add(1, "mid", "M2")
	if got, want := s.Names(), []string{"zeta", "Alpha", "mid"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	if got, want := s.Entries(), []int{2, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Entries() = %v, want %v", got, want)
	}
	for name, want := range map[string]int{"ZETA": 2, " z ": 2, "alpha": 0, "m2": 1} {
		if got, err := s.Lookup(name); err != nil || got != want {
			t.Errorf("Lookup(%q) = (%d, %v), want %d", name, got, err, want)
		}
	}
	_, err := s.Lookup("nope")
	if want := `pkg: unknown thing "nope" (have zeta, Alpha, mid)`; err == nil || err.Error() != want {
		t.Errorf("Lookup(nope) error = %v, want %s", err, want)
	}
}

// TestDuplicateRejected: a name or alias already taken, in any case,
// panics at Add, as does an empty name.
func TestDuplicateRejected(t *testing.T) {
	for _, tc := range []struct {
		name    string
		aliases []string
	}{
		{"alpha", nil},
		{"ALPHA", nil},
		{"beta", []string{"A"}},
		{"gamma", []string{"g", "G"}},
		{"", nil},
	} {
		func() {
			s := registry.New[int]("pkg", "thing")
			s.Add(0, "alpha", "a")
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%q, %q) did not panic", tc.name, tc.aliases)
				}
			}()
			s.Add(1, tc.name, tc.aliases...)
		}()
	}
}
