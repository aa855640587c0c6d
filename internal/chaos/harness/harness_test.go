package harness

// The chaos suite: every test here is named TestChaos* so CI's dedicated
// job (`go test -race -run Chaos ./...`) picks up exactly this tier. Each
// run derives its seed from the clock unless -chaos.seed pins it, prints
// the seed, and embeds it in every failure message — a red run anywhere
// is reproducible with:
//
//	go test -race -run TestChaosX ./internal/chaos/harness -chaos.seed=<seed>

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mptcp/internal/chaos"
	"mptcp/internal/mptcpnet"
	"mptcp/internal/registry"
	"mptcp/internal/scenario"
	"mptcp/internal/sched"
	"mptcp/internal/sim"
)

var chaosSeed = flag.Int64("chaos.seed", 0,
	"pin the chaos/soak master seed for reproduction (0 = derive from the clock)")

// seedFor picks (and logs) the run's master seed.
func seedFor(t *testing.T) int64 {
	s := *chaosSeed
	if s == 0 {
		s = time.Now().UnixNano()%1_000_000_000 + 1
	}
	t.Logf("chaos seed %d (reproduce with -chaos.seed=%d)", s, s)
	return s
}

// directorPath is the loss-free base model of the director runs: its
// 2 Mb/s rate limit stretches each transfer over most of the churn
// window, so every drop counted comes from the random walk.
var directorPath = &chaos.PathConfig{Delay: time.Millisecond, RateBps: 2e6}

// TestChaosTransfersSurviveDirector is the core liveness run: concurrent
// connections over real UDP while the director randomly kills, heals,
// degrades, reorders, duplicates, corrupts and partitions paths. Path 0
// of every connection is protected (never killed, mild faults), so every
// transfer must complete, byte-exact, and teardown must leak nothing;
// and the walk's faults must have hit the traffic.
func TestChaosTransfersSurviveDirector(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	res := RunT(t, Config{
		Sockets:    6,
		Paths:      2,
		Bytes:      256 << 10,
		Seed:       seedFor(t),
		Churn:      1500 * time.Millisecond,
		SenderPath: directorPath,
	})
	if res.Completed != 6 {
		t.Errorf("completed %d/6 transfers", res.Completed)
	}
	if res.PathStats.Dropped == 0 {
		t.Errorf("the director dropped nothing: its faults missed the transfers (%+v)", res.PathStats)
	}
}

// TestChaosThreePathsWithCountermeasures: wider connections, the §6
// receive-buffer countermeasures on, a tighter shared buffer — the
// configuration the paper's robustness story actually runs.
func TestChaosThreePathsWithCountermeasures(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	res := RunT(t, Config{
		Sockets:    4,
		Paths:      3,
		Bytes:      384 << 10,
		Seed:       seedFor(t) + 13,
		Churn:      1500 * time.Millisecond,
		SenderPath: directorPath,
		RecvBuf:    128,
		Net: mptcpnet.Config{
			SchedOpts: sched.Options{OpportunisticRetx: true, Penalize: true},
		},
	})
	if res.Completed != 4 {
		t.Errorf("completed %d/4 transfers", res.Completed)
	}
	if res.PathStats.Dropped == 0 {
		t.Errorf("the director dropped nothing: its faults missed the transfers (%+v)", res.PathStats)
	}
}

// TestChaosRunEndsWithTransfers: Run returns once every transfer has
// resolved, not when the director's churn window closes; stopping the
// clock is all it takes to stop the walk.
func TestChaosRunEndsWithTransfers(t *testing.T) {
	start := time.Now()
	res := RunT(t, Config{Sockets: 2, Bytes: 16 << 10, Seed: seedFor(t) + 83, Churn: 30 * time.Second})
	if res.Completed != 2 {
		t.Errorf("completed %d/2 transfers", res.Completed)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("Run took %v: it waited out the 30s churn window after its transfers resolved", took)
	}
}

// TestChaosAllFaultKindsExercised pins injector coverage independently of
// the director's random walk: every fault class is dialled on at once —
// reordering, duplication, corruption, burst loss — and the transfers
// must still complete exactly while every injector counter and the wire
// checksum's drop counter advance.
func TestChaosAllFaultKindsExercised(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	res := RunT(t, Config{
		Sockets: 3,
		Paths:   2,
		// The base model must stay in force for the whole transfer, and
		// the transfer must be long enough, for every injector to fire
		// whatever the seed: the director's closing heal-all switches
		// loss off, and the burst-loss chain enters its bad state only
		// once per ~50 datagrams. (With a 200 ms churn window and 96 KiB,
		// a connection that spent those 200 ms waiting out one RTO saw no
		// drop at all — a few seeds in a hundred.)
		Bytes: 256 << 10,
		Seed:  seedFor(t) + 29,
		Churn: 2 * time.Second,
		Tick:  500 * time.Millisecond, // director mostly idle; faults come from the base model
		SenderPath: &chaos.PathConfig{
			Delay:        time.Millisecond,
			Jitter:       2 * time.Millisecond,
			GE:           chaos.DefaultGE(),
			DupRate:      0.1,
			CorruptRate:  0.05,
			ReorderRate:  0.2,
			ReorderDelay: 5 * time.Millisecond,
		},
	})
	if res.Completed != 3 {
		t.Errorf("completed %d/3 transfers", res.Completed)
	}
	st := res.PathStats
	if st.Dropped == 0 || st.Duplicated == 0 || st.Corrupted == 0 || st.Reordered == 0 {
		t.Errorf("fault coverage gap: %+v (want every injector > 0)", st)
	}
	if st.Corrupted > 0 && res.Corrupted == 0 {
		t.Error("frames were corrupted in flight but no endpoint checksum drop was counted")
	}
}

// killAll is the terminal script: every path of a connection goes down
// at 30 ms and stays down.
var killAll = scenario.Scenario{Name: "kill-all", Directives: []scenario.Directive{
	scenario.LinkDown{Link: 0, At: 30 * sim.Millisecond},
	scenario.LinkDown{Link: 1, At: 30 * sim.Millisecond},
}}

// deadPathsRun is a run whose two paths per connection all stop
// delivering at 30 ms, while each transfer is still in flight (~2 Mb/s
// per path stretches it to ~130 ms): the senders must give up.
func deadPathsRun(seed int64, scn scenario.Scenario) Config {
	return Config{
		Sockets:     2,
		Paths:       2,
		Bytes:       32 << 10,
		Seed:        seed,
		SenderPath:  &chaos.PathConfig{Delay: time.Millisecond, RateBps: 2e6},
		Scenario:    scn,
		WaitTimeout: 90 * time.Second,
		Net:         mptcpnet.Config{MinRTO: 2 * time.Millisecond},
	}
}

// TestChaosAllPathsDeadGivesUp is the terminal scenario: every path of
// every connection is killed shortly after launch and stays dead. Every
// transfer must fail with an explicit error (the sender's one give-up
// rule: every path timing out with no progress), which the harness
// accepts because every path was down; nothing may complete, nothing
// may stall silently, and teardown must still leak zero goroutines and
// timers.
func TestChaosAllPathsDeadGivesUp(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second give-up backoff")
	}
	res := RunT(t, deadPathsRun(seedFor(t)+41, killAll))
	if res.Errored != 2 || res.Completed != 0 {
		t.Errorf("errored=%d completed=%d, want all 2 to fail explicitly", res.Errored, res.Completed)
	}
}

// TestChaosErrorWithPathUpIsViolation: the same give-up, with path 0
// losing everything rather than killed, is a violation. A sender may
// fail only once every one of its paths is down.
func TestChaosErrorWithPathUpIsViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second give-up backoff")
	}
	res, err := Run(deadPathsRun(seedFor(t)+43, scenario.Scenario{Name: "lossy", Directives: []scenario.Directive{
		scenario.LossStep{Link: 0, At: 30 * sim.Millisecond, Loss: 1},
		scenario.LinkDown{Link: 1, At: 30 * sim.Millisecond},
	}}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errored != 2 || len(res.Violations) != 2 {
		t.Fatalf("errored=%d, violations %q: want both senders' errors judged violations", res.Errored, res.Violations)
	}
	for _, v := range res.Violations {
		if !strings.Contains(v, "while one of its paths was up") {
			t.Errorf("violation %q, want the sender's error with a path up", v)
		}
	}
}

// TestChaosWaitTimeoutIsViolation: every path is down, but at the
// default 200 ms MinRTO the senders' give-up bound is 51 s, so their
// Waits run out of time at the 300 ms deadline. That resolves nothing:
// each is a stall, whatever the paths.
func TestChaosWaitTimeoutIsViolation(t *testing.T) {
	cfg := deadPathsRun(seedFor(t)+47, killAll)
	cfg.WaitTimeout, cfg.Net = 300*time.Millisecond, mptcpnet.Config{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errored != 0 || len(res.Violations) != 2 {
		t.Fatalf("errored=%d, violations %q: want both transfers judged stalls", res.Errored, res.Violations)
	}
	for _, v := range res.Violations {
		if !strings.Contains(v, "stalled") {
			t.Errorf("violation %q, want a stall", v)
		}
	}
}

// TestChaosStallReportNamesBytesRead: at 100 kb/s per path the reader
// has had data for several hundred milliseconds when every path dies at
// 400 ms, and at the default MinRTO the senders' Waits run out at the
// 800 ms deadline. Each stall names the bytes its reader got, not 0.
func TestChaosStallReportNamesBytesRead(t *testing.T) {
	cfg := deadPathsRun(seedFor(t)+53, scenario.Scenario{Name: "late-kill-all", Directives: []scenario.Directive{
		scenario.LinkDown{Link: 0, At: 400 * sim.Millisecond},
		scenario.LinkDown{Link: 1, At: 400 * sim.Millisecond},
	}})
	cfg.SenderPath = &chaos.PathConfig{Delay: time.Millisecond, RateBps: 1e5}
	cfg.WaitTimeout, cfg.Net = 800*time.Millisecond, mptcpnet.Config{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 2 {
		t.Fatalf("violations %q: want both transfers judged stalls", res.Violations)
	}
	for _, v := range res.Violations {
		var sock, got, want int
		if _, err := fmt.Sscanf(v[strings.Index(v, "socket"):], "socket %d stalled silently: %d/%d bytes", &sock, &got, &want); err != nil {
			t.Fatalf("violation %q: %v", v, err)
		}
		if got < mptcpnet.MaxPayload || got >= want {
			t.Errorf("violation %q names %d of %d bytes read, want at least one segment's %d and less than all",
				v, got, want, mptcpnet.MaxPayload)
		}
	}
}

// TestChaosScriptTimesCountFromLaunch: the run's clock starts with its
// transfers, so every scripted kill in the log comes at least its At
// after the launch event. (~2 Mb/s per path keeps each transfer in
// flight past the kill.)
func TestChaosScriptTimesCountFromLaunch(t *testing.T) {
	const at = 20 * sim.Millisecond
	var buf bytes.Buffer
	RunT(t, Config{
		Sockets:    8,
		Bytes:      16 << 10,
		Seed:       seedFor(t) + 89,
		SenderPath: &chaos.PathConfig{Delay: time.Millisecond, RateBps: 2e6},
		LogW:       &buf,
		Scenario: scenario.Scenario{Name: "blip", Directives: []scenario.Directive{
			scenario.LinkDown{Link: 1, At: at},
			scenario.LinkUp{Link: 1, At: 2 * at},
		}},
	})
	launch, kills := -1.0, 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e chaos.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		switch e.Ev {
		case "launch":
			launch = e.T
		case "kill":
			kills++
			if launch < 0 || e.T-launch < at.Seconds() {
				t.Errorf("kill of %s at %.6fs, launch at %.6fs: want it at least %v after the launch", e.Path, e.T, launch, at)
			}
		}
	}
	if kills != 8 {
		t.Errorf("logged %d kills, want one per socket", kills)
	}
}

// TestChaosScriptedPartition uses a scenario script rather than the
// random director: one subflow of every connection partitioned for a
// fixed window mid-transfer, exercising reinjection and recovery on a
// schedule.
func TestChaosScriptedPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	res := RunT(t, Config{
		Sockets: 2,
		Paths:   2,
		Bytes:   128 << 10,
		Seed:    seedFor(t) + 57,
		// ~8 Mb/s per path so the transfer spans the partition window.
		SenderPath: &chaos.PathConfig{Delay: time.Millisecond, RateBps: 8e6},
		Scenario: scenario.Scenario{Name: "partition", Directives: []scenario.Directive{
			scenario.LinkDown{Link: 1, At: 15 * sim.Millisecond},
			scenario.LinkUp{Link: 1, At: 500 * sim.Millisecond},
		}},
	})
	if res.Completed != 2 {
		t.Errorf("completed %d/2 transfers through the scripted partition", res.Completed)
	}
}

// TestChaosScenarioBuiltins runs the simulator's flap and handover
// scripts, unchanged, on the real stack: every connection's path 0 flaps
// (or dies and returns, while path 1 slows down) under rate-limited
// paths that make each transfer span the script. Every transfer must
// complete byte-exact, and the scripted kills must have cut traffic.
func TestChaosScenarioBuiltins(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	for i, name := range []string{"flap", "handover"} {
		t.Run(name, func(t *testing.T) {
			res := RunT(t, Config{
				Sockets:    2,
				Paths:      2,
				Bytes:      384 << 10,
				Seed:       seedFor(t) + 71 + int64(i),
				SenderPath: &chaos.PathConfig{Delay: time.Millisecond, RateBps: 4e6},
				Scenario:   registry.Must(scenario.Build(name, 600*sim.Millisecond)),
			})
			if res.Completed != 2 {
				t.Errorf("completed %d/2 transfers under %s", res.Completed, name)
			}
			if res.PathStats.Dropped == 0 {
				t.Errorf("%s dropped nothing: the scripted outage missed the transfer", name)
			}
		})
	}
}

// TestChaosHandoverNeedsRatedPaths: handover ramps the 3G link's rate by a
// factor, and the default data path has no rate limit to scale, so the
// run fails at install with an error that says so.
func TestChaosHandoverNeedsRatedPaths(t *testing.T) {
	_, err := Run(Config{Scenario: registry.Must(scenario.Build("handover", 600*sim.Millisecond))})
	if err == nil || !strings.Contains(err.Error(), "link 1 has no rate to scale") {
		t.Errorf("handover on the default paths: Run = %v, want an error naming the link without a rate", err)
	}
}

// TestChaosClockStop: a stopped Clock runs nothing more — neither what
// was pending nor what is scheduled after — and Stop returns only once
// a callback already running has finished.
func TestChaosClockStop(t *testing.T) {
	c := NewClock()
	var mu sync.Mutex
	var fired []string
	note := func(s string) func() {
		return func() { mu.Lock(); fired = append(fired, s); mu.Unlock() }
	}
	running := make(chan struct{})
	c.At(0, func() {
		close(running)
		time.Sleep(20 * time.Millisecond)
		note("running")()
	})
	c.At(sim.Time(time.Hour), note("pending"))
	<-running
	c.Stop()
	c.At(0, note("late"))
	mu.Lock()
	got := append([]string(nil), fired...)
	mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "running" || len(fired) != 1 {
		t.Errorf("fired %v by Stop's return, %v after; want [running] both times", got, fired)
	}
}
