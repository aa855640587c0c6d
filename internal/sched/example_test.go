package sched_test

import (
	"fmt"
	"strings"

	"mptcp/internal/sched"
)

// Constructing a scheduler by registry name: lookup is case-insensitive
// and accepts aliases (rr names roundrobin, dup names redundant).
func ExampleNew() {
	s, err := sched.New("rr")
	if err != nil {
		panic(err)
	}
	fmt.Println(s.Name())
	// Output:
	// roundrobin
}

// The registry drives every scheduler list in the repo — the CLI help
// and the schedgrid experiment's scheduler axis — so adding an entry to
// its catalogue is the only step needed to appear everywhere.
func ExampleNames() {
	fmt.Println(strings.Join(sched.Names(), " "))
	// Output:
	// firstfit minrtt roundrobin wcwnd redundant blest bandit
}

// A spec composes a scheduler with the §6 receive-buffer-blocking
// countermeasures: opportunistic retransmission (+otr) and subflow
// penalization (+pen). "minrtt+otr+pen" is the paper's configuration.
func ExampleParse() {
	s, opts, err := sched.Parse("minrtt+otr+pen")
	if err != nil {
		panic(err)
	}
	fmt.Println(s.Name(), opts.OpportunisticRetx, opts.Penalize)
	fmt.Println("spec:", s.Name()+opts.String())
	// Output:
	// minrtt true true
	// spec: minrtt+otr+pen
}
