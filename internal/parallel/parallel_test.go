package parallel

import (
	"sync"
	"testing"
)

func TestResolveWorkers(t *testing.T) {
	if got := resolveWorkers(0, 1000); got < 1 {
		t.Errorf("auto workers = %d", got)
	}
	if got := resolveWorkers(8, 3); got != 3 {
		t.Errorf("workers capped at n: got %d, want 3", got)
	}
	if got := resolveWorkers(1, 1000); got != 1 {
		t.Errorf("serial request = %d workers", got)
	}
}

func TestChunksPartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, workers := range []int{1, 2, 3, 8, 33} {
			hits := make([]int32, n)
			var mu sync.Mutex
			ranges := 0
			Chunks(n, workers, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("n=%d w=%d: bad chunk [%d,%d)", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i]++
				}
				mu.Lock()
				ranges++
				mu.Unlock()
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, workers, i, h)
				}
			}
			if n > 0 && workers == 1 && ranges != 1 {
				t.Errorf("serial path produced %d chunks", ranges)
			}
		}
	}
}
