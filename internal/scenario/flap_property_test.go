package scenario_test

import (
	"testing"

	"mptcp/internal/cc"
	"mptcp/internal/netsim"
	"mptcp/internal/registry"
	"mptcp/internal/scenario"
	"mptcp/internal/sim"
	"mptcp/internal/topo"
	"mptcp/internal/transport"
)

// TestFlapRegrowsEveryAlgorithm is the property suite behind the flap
// scenario: every algorithm in the cc registry — including the
// kernel-family successors OLIA, BALIA and the delay-based wVegas — must
// survive a PeriodicFlap on one of its two paths and come back:
//
//   - the connection keeps delivering across the flap phase (the other
//     path plus §6 reinjection must prevent a stall);
//   - after the final flap the flapped path resumes carrying data and
//     its cwnd re-grows — no algorithm may leave a window stuck at the
//     floor once loss stops;
//   - cwnds stay at or above the protocol minimum of 1 throughout;
//   - teardown leaks nothing: once the connection stops, the event queue
//     drains to empty (no scenario or transport timer is left armed).
func TestFlapRegrowsEveryAlgorithm(t *testing.T) {
	const T = 20 * sim.Second // flaps end at 4T/5 = 16 s; 4 s of recovery
	for _, name := range cc.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			s := sim.New(11)
			nw := netsim.NewNet(s)
			l0 := topo.NewDuplex("flapped", 8, 10*sim.Millisecond, 40)
			l1 := topo.NewDuplex("steady", 8, 10*sim.Millisecond, 40)
			alg, err := cc.New(name)
			if err != nil {
				t.Fatal(err)
			}
			c := transport.NewConn(nw, transport.Config{
				Alg:   alg,
				Paths: []transport.Path{topo.PathThrough(l0), topo.PathThrough(l1)},
			})
			c.Start()

			env := &scenario.Env{Clock: s, Net: nw, Links: []scenario.Link{l0, l1}}
			registry.Must(scenario.Build("flap", T)).MustInstall(env)

			// During the flap phase the connection must not stall.
			flapsEnd := 4 * T / 5
			s.RunUntil(T / 5)
			preFlaps := c.Delivered()
			s.RunUntil(flapsEnd)
			inFlaps := c.Delivered()
			if inFlaps <= preFlaps {
				t.Errorf("no data delivered during the flap phase (%d at start, %d at end)", preFlaps, inFlaps)
			}

			// Give the flapped path one backed-off RTO to notice the link
			// is back, then require it to carry fresh data and re-grow.
			s.RunUntil(flapsEnd + (T-flapsEnd)/2)
			sub0 := c.SubflowDelivered(0)
			cwnd0 := c.Cwnd(0)
			s.RunUntil(T)
			if got := c.SubflowDelivered(0); got <= sub0 {
				t.Errorf("flapped path stuck after flaps ended: subflow delivered %d -> %d", sub0, got)
			}
			if got := c.Cwnd(0); got < cwnd0 && got < 2 {
				t.Errorf("flapped path cwnd did not re-grow: %v -> %v", cwnd0, got)
			}
			if c.Delivered() <= inFlaps {
				t.Errorf("connection stopped delivering after the flaps (%d -> %d)", inFlaps, c.Delivered())
			}
			for i := 0; i < 2; i++ {
				if w := c.Cwnd(i); w < 1 {
					t.Errorf("subflow %d cwnd %v below the protocol floor of 1", i, w)
				}
			}

			// No leaked timers: stop the connection, drain in-flight
			// packets, and the queue must be empty — the flap timer stopped
			// rearming when the schedule ended, the connection's on Stop.
			c.Stop()
			s.Run()
			if got := s.Pending(); got != 0 {
				t.Errorf("%d events still pending after teardown (leaked timers)", got)
			}
		})
	}
}
