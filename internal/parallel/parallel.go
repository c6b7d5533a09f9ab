// Package parallel is the bounded, deterministic worker pool shared by
// the solar-field engine and the horizon march: work over [0, n) is cut
// into one contiguous chunk per worker, ceil(n/workers) indices each,
// so any caller writing only to its own index range gets the same
// result for every worker count.
package parallel

import (
	"runtime"
	"sync"
)

// resolveWorkers maps a worker knob to an effective worker count for a
// job of n independent units: 0 means one worker per available CPU,
// and the count never exceeds n (no idle goroutines).
func resolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Chunks partitions [0, n) into one contiguous chunk per worker and
// runs fn(lo, hi) on each from a bounded pool. The partition depends
// only on (n, workers), every index belongs to exactly one chunk, and
// chunks never share writable state through this helper — so any
// caller whose fn writes only to its own index range is deterministic
// and bit-identical for every worker count. With workers == 1 the
// single chunk runs on the calling goroutine (the serial reference
// path: no goroutines, no synchronisation).
func Chunks(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = resolveWorkers(workers, n)
	if workers == 1 {
		fn(0, n)
		return
	}
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
