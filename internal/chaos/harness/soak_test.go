package harness

// The soak tier: hundreds of concurrent sockets, minutes of churn,
// multiple rounds with distinct derived seeds. Gated behind -soak so the
// ordinary test run never pays for it; the nightly CI workflow runs
//
//	go test -race -run Soak -timeout 40m ./internal/chaos/harness -soak
//
// and uploads the JSONL event log (written to $CHAOS_LOG, default
// soak.jsonl) as an artifact when the run fails, alongside the printed
// seed — together they replay the failure.

import (
	"flag"
	"os"
	"testing"
	"time"

	"mptcp/internal/chaos"
)

var soak = flag.Bool("soak", false, "run the multi-minute soak tier")

func TestSoakChurn(t *testing.T) {
	if !*soak {
		t.Skip("soak tier disabled; run with -soak")
	}
	base := seedFor(t)

	logPath := os.Getenv("CHAOS_LOG")
	if logPath == "" {
		logPath = "soak.jsonl"
	}
	logF, err := os.Create(logPath)
	if err != nil {
		t.Fatalf("seed=%d: event log: %v", base, err)
	}
	defer logF.Close()
	t.Logf("soak event log: %s", logPath)

	const (
		rounds  = 6
		sockets = 40 // × rounds = 240 connections, 480 subflows, ~2000 goroutines each round
	)
	for round := 0; round < rounds; round++ {
		seed := base + int64(round)*101
		t.Logf("round %d/%d seed=%d", round+1, rounds, seed)
		start := time.Now()
		res := RunT(t, Config{
			Sockets: sockets,
			Paths:   2,
			// 1 MiB over two 400 kb/s paths takes 10.5 s undisturbed, so
			// every transfer spans most of the churn window: Run returns
			// when the last one resolves, not when the churn ends.
			Bytes:       1 << 20,
			SenderPath:  &chaos.PathConfig{Delay: time.Millisecond, RateBps: 400e3},
			Seed:        seed,
			Churn:       20 * time.Second,
			Tick:        10 * time.Millisecond,
			WaitTimeout: 3 * time.Minute,
			LogW:        logF,
		})
		t.Logf("round %d: %d completed, %d errored, %v elapsed",
			round+1, res.Completed, res.Errored, time.Since(start).Round(time.Millisecond))
		if res.Completed != sockets {
			t.Errorf("seed=%d round %d: only %d/%d transfers completed", seed, round+1, res.Completed, sockets)
		}
		if t.Failed() {
			return // keep the log short and the seed obvious
		}
	}
}
