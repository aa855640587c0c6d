package cc_test

import (
	"fmt"
	"strings"

	"mptcp/internal/cc"
)

// Constructing an algorithm by registry name: lookup is case-
// insensitive and accepts aliases (TCP and UNCOUPLED both name the
// single-path baseline REGULAR).
func ExampleNew() {
	alg, err := cc.New("olia")
	if err != nil {
		panic(err)
	}
	fmt.Println(alg.Name())
	tcp, _ := cc.New("TCP")
	fmt.Println(tcp.Name())
	// Output:
	// OLIA
	// REGULAR
}

// The registry drives every algorithm list in the repo — the CLI help,
// the tournament/dynamics/schedgrid grids, the property suites — so
// adding an entry to its catalogue is the only step needed to appear
// everywhere. Names are in catalogue order: the paper's five, then the
// Linux-kernel successor family.
func ExampleNames() {
	fmt.Println(strings.Join(cc.Names(), " "))
	// Output:
	// REGULAR EWTCP COUPLED SEMICOUPLED MPTCP OLIA BALIA WVEGAS
}
