package sim

import (
	"runtime"
	"sync"
)

// Parallel runs fn(i) for every i in [0, n) on at most workers
// goroutines (runtime.GOMAXPROCS(0) when workers <= 0) and returns once
// every call has completed. It is the one worker pool of the tree:
// internal/exp's grid cells, batch trials and training episodes all fan
// out through it. fn must write its output only to slots indexed by i
// (never to shared state), which keeps Parallel race-free and its
// callers' results independent of scheduling order.
func Parallel(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
