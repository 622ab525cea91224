// Package workpool is the static parallel-for the batch loops share: the
// database build fan-out, row-sharded kernels, experiment sweeps and the
// Pass@k sample fan-out.
package workpool

import (
	"sync"
	"sync/atomic"
)

// Run executes fn(0..n-1) on up to workers goroutines and waits for all of
// them — a static parallel-for for the embarrassingly-parallel batch loops
// (database build fan-out, row-sharded kernels). Indices are handed out
// atomically until exhausted. workers<=1 or n<=1 runs inline, so serial
// callers pay nothing.
func Run(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
