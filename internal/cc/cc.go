// Package cc is the congestion-control name catalogue. It lists every
// algorithm in internal/core with its constructor and registry.Info
// record; New resolves names by internal/registry's rule. Callers — the
// CLI tools, the experiment registry, tests — never hard-code the
// algorithm list; they derive it from Names/Infos.
//
// Algorithm instances returned by New are fresh per call and owned by
// exactly one connection: stateful algorithms (MPTCP's cache, OLIA's
// inter-loss counters, wVegas's per-path epochs) must never be shared
// across connections or goroutines.
package cc

import (
	"mptcp/internal/core"
	"mptcp/internal/registry"
)

var algorithms = registry.New[func() core.Algorithm]("cc", "algorithm")

// The catalogue, in presentation order: the paper's five algorithms,
// then the Linux-kernel successor family surveyed by Kimura & Loureiro
// (arXiv:1812.03210). Every constructor returns a fresh instance per
// call.
func init() {
	algorithms.Add(registry.Info{Name: "REGULAR", Aliases: []string{"UNCOUPLED", "TCP"}, Ref: "NSDI'11 §2.1",
		Desc: "uncoupled NewReno on every subflow (single-path baseline; unfair strawman with >1)"},
		func() core.Algorithm { return core.Regular{} })
	algorithms.Add(registry.Info{Name: "EWTCP", Ref: "NSDI'11 §2.1",
		Desc: "equally-weighted TCP: each subflow runs weighted AIMD at 1/n of a TCP's share"},
		func() core.Algorithm { return core.EWTCP{} })
	algorithms.Add(registry.Info{Name: "COUPLED", Ref: "NSDI'11 §2.2",
		Desc: "fully coupled increase/decrease; moves all traffic to the least-congested path"},
		func() core.Algorithm { return core.Coupled{} })
	algorithms.Add(registry.Info{Name: "SEMICOUPLED", Ref: "NSDI'11 §2.4",
		Desc: "coupled increase, per-subflow decrease; splits windows in proportion to 1/p_r"},
		func() core.Algorithm { return core.SemiCoupled{} })
	algorithms.Add(registry.Info{Name: "MPTCP", Ref: "NSDI'11 §2, RFC 6356",
		Desc: "the paper's eq. (1): semicoupled with RTT compensation and the 1/w_r cap"},
		func() core.Algorithm { return &core.MPTCP{} })
	algorithms.Add(registry.Info{Name: "OLIA", Ref: "Khalili et al. CoNEXT'12, Linux mptcp_olia",
		Desc: "opportunistic linked increases: Pareto-optimality fix, probe traffic steered to the best paths"},
		func() core.Algorithm { return &core.OLIA{} })
	algorithms.Add(registry.Info{Name: "BALIA", Ref: "Peng et al. ToN'16, Linux mptcp_balia",
		Desc: "balanced linked adaptation: trades off TCP-friendliness vs responsiveness between LIA and OLIA"},
		func() core.Algorithm { return core.BALIA{} })
	algorithms.Add(registry.Info{Name: "WVEGAS", Aliases: []string{"VEGAS"}, Ref: "Cao et al. ICNP'12, Linux mptcp_wvegas",
		Desc: "weighted Vegas: delay-based, backs off on queuing delay before queues overflow"},
		func() core.Algorithm { return &core.WVegas{} })
}

// New constructs a fresh instance of the algorithm registered under
// name (or one of its aliases).
func New(name string) (core.Algorithm, error) {
	ctor, err := algorithms.Lookup(name)
	if err != nil {
		return nil, err
	}
	return ctor(), nil
}

// Names lists the canonical algorithm names in catalogue order.
func Names() []string { return algorithms.Names() }

// Infos returns the catalogue's metadata records in Names order.
func Infos() []registry.Info { return algorithms.Infos() }
