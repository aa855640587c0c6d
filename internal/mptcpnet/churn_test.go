package mptcpnet

import (
	"net"
	"sync"
	"testing"
	"time"

	"mptcp/internal/chaos"
	"mptcp/internal/chaos/leak"
)

// TestSocketChurnUnderPathFlaps churns whole connections — open,
// transfer, close, repeat — while a background "scenario" goroutine
// flaps one of the two emulated paths (loss 1.0 ⇄ 0) and wobbles its
// delay the whole time. Run under -race (CI does) this exercises the
// concurrency of chaos.Path mutation against the per-subflow writer
// goroutines, and the repeated setup/teardown catches goroutine or
// timer leaks that a single long transfer hides: path 0 stays clean, so
// every transfer must finish via reinjection no matter where in the
// flap cycle it lands.
func TestSocketChurnUnderPathFlaps(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-connection churn")
	}
	leak.Check(t, 5*time.Second) // registered first ⇒ runs after every churned socket's cleanups
	const iterations = 5

	var flapped []*chaos.Path
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// The flapping scenario: every 20 ms toggle path 1 between dead
		// and alive, alternating its delay between near and far.
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		down := false
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				down = !down
				mu.Lock()
				for _, e := range flapped {
					e.Update(func(c *chaos.PathConfig) {
						if down {
							c.LossRate, c.Delay = 1, 10*time.Millisecond
						} else {
							c.LossRate, c.Delay = 0, time.Millisecond
						}
					})
				}
				mu.Unlock()
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for iter := 0; iter < iterations; iter++ {
		transfer(t, 96<<10, 2, func(i int) (net.PacketConn, net.PacketConn, net.Addr) {
			s, r, ra := pipePair(t, time.Millisecond, 0, 8e6, int64(1000+10*iter+i))
			if i == 1 {
				mu.Lock()
				flapped = append(flapped, s.(*chaos.Path))
				mu.Unlock()
			}
			return s, r, ra
		}, Config{}, 60*time.Second)
		if t.Failed() {
			t.Fatalf("transfer %d failed under path flaps", iter)
		}
	}
}
