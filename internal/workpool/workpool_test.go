package workpool

import (
	"sync/atomic"
	"testing"
)

// TestRunCoversEveryIndexOnce: every index runs exactly once, serially and
// in parallel, including more workers than indices.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 50
		var hits [n]atomic.Int32
		Run(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, got)
			}
		}
	}
}
