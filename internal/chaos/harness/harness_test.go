package harness

// The chaos suite: every test here is named TestChaos* so CI's dedicated
// job (`go test -race -run Chaos ./...`) picks up exactly this tier. Each
// run derives its seed from the clock unless -chaos.seed pins it, prints
// the seed, and embeds it in every failure message — a red run anywhere
// is reproducible with:
//
//	go test -race -run TestChaosX ./internal/chaos/harness -chaos.seed=<seed>

import (
	"flag"
	"testing"
	"time"

	"mptcp/internal/chaos"
	"mptcp/internal/mptcpnet"
	"mptcp/internal/sched"
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

// TestChaosTransfersSurviveDirector is the core liveness run: concurrent
// connections over real UDP while the director randomly kills, heals,
// degrades, reorders, duplicates, corrupts and partitions paths. Path 0
// of every connection is protected (never killed, mild faults), so every
// transfer must complete, byte-exact, and teardown must leak nothing.
func TestChaosTransfersSurviveDirector(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	res := RunT(t, Config{
		Sockets: 6,
		Paths:   2,
		Bytes:   64 << 10,
		Seed:    seedFor(t),
		Churn:   1500 * time.Millisecond,
	})
	if res.Completed != 6 {
		t.Errorf("completed %d/6 transfers", res.Completed)
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
		Sockets: 4,
		Paths:   3,
		Bytes:   48 << 10,
		Seed:    seedFor(t) + 13,
		Churn:   1500 * time.Millisecond,
		RecvBuf: 128,
		Net: mptcpnet.Config{
			SchedOpts: sched.Options{OpportunisticRetx: true, Penalize: true},
		},
	})
	if res.Completed != 4 {
		t.Errorf("completed %d/4 transfers", res.Completed)
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

// TestChaosAllPathsDeadGivesUp is the terminal scenario: every path of
// every connection is killed shortly after start and stays dead. The
// invariant flips — every transfer must FAIL with an explicit error (the
// sender's one give-up rule: consecutive RTOs on every path), nothing may
// complete, nothing may stall silently, and teardown must still leak zero
// goroutines and timers.
func TestChaosAllPathsDeadGivesUp(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second give-up backoff")
	}
	res := RunT(t, Config{
		Sockets: 2,
		Paths:   2,
		Bytes:   32 << 10,
		Seed:    seedFor(t) + 41,
		KillAll: true,
		// ~2 Mb/s per path keeps the transfer in flight (~130ms) well past
		// the kill, so the sender is cut off mid-stream.
		SenderPath:  &chaos.PathConfig{Delay: time.Millisecond, RateBps: 2e6},
		KillDelay:   30 * time.Millisecond,
		WaitTimeout: 90 * time.Second,
		Net:         mptcpnet.Config{MinRTO: 2 * time.Millisecond},
	})
	if res.Errored != 2 || res.Completed != 0 {
		t.Errorf("errored=%d completed=%d, want all 2 to fail explicitly", res.Errored, res.Completed)
	}
}

// TestChaosScriptedPartition uses a deterministic kill/heal script rather
// than the random director: one subflow partitioned for a fixed window
// mid-transfer, exercising reinjection and recovery on a schedule.
func TestChaosScriptedPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	seed := seedFor(t) + 57
	// The harness's random director is disabled by a zero-length churn;
	// the script drives the partition instead.
	res, err := Run(Config{
		Sockets: 2,
		Paths:   2,
		Bytes:   128 << 10,
		Seed:    seed,
		Churn:   time.Millisecond,
		// ~8 Mb/s per path so the transfer spans the partition window.
		SenderPath: &chaos.PathConfig{Delay: time.Millisecond, RateBps: 8e6},
		Script: chaos.Script{
			{At: 15 * time.Millisecond, Kill: true, Name: "s0-p1"},
			{At: 15 * time.Millisecond, Kill: true, Name: "s1-p1"},
			{At: 500 * time.Millisecond, Kill: false, Name: "s0-p1"},
			{At: 500 * time.Millisecond, Kill: false, Name: "s1-p1"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	if res.Completed != 2 {
		t.Errorf("completed %d/2 transfers through the scripted partition", res.Completed)
	}
}
