package sim

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 37
		counts := make([]int32, n)
		Parallel(n, workers, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Errorf("workers %d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestParallelBoundsConcurrency(t *testing.T) {
	const limit = 3
	var cur, peak int32
	var mu sync.Mutex
	Parallel(50, limit, func(i int) {
		c := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if c > peak {
			peak = c
		}
		mu.Unlock()
		atomic.AddInt32(&cur, -1)
	})
	if peak > limit {
		t.Errorf("observed %d concurrent units, limit %d", peak, limit)
	}
}

func TestParallelEmpty(t *testing.T) {
	called := false
	Parallel(0, 0, func(int) { called = true })
	if called {
		t.Error("Parallel(0, ...) ran the body")
	}
}
