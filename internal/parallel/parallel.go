// Package parallel provides the deterministic fan-out engine used by the
// evaluation layers: a bounded worker pool mapping a function over a slice
// with ordered result collection. The paper's whole evaluation is
// embarrassingly parallel — parameter sweeps over loss rate and scheme
// knobs, Monte-Carlo shards over the dependence graph, independent
// simulated receivers — and every one of those call sites shares the same
// contract: results land in input order, so output bytes are identical
// regardless of how many workers ran, and the lowest-index error wins, so
// failures are as reproducible as successes.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the pool width used when a caller passes workers <= 0:
// one worker per available CPU.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clamp resolves a workers knob: <= 0 selects defaultWorkers, and the pool
// is never wider than the number of items.
func clamp(workers, items int) int {
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map applies fn to every element of items on a pool of at most workers
// goroutines (workers <= 0 selects defaultWorkers) and returns the results
// in input order. fn receives the element's index and value; it must be
// safe to call concurrently with itself.
//
// Determinism contract: because results are collected by index, the
// returned slice is identical for any worker count, provided fn(i, item)
// itself is deterministic. If multiple calls fail, the error of the
// lowest index is returned — again independent of scheduling — and
// remaining items may be skipped.
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, nil
	}
	workers = clamp(workers, len(items))
	if workers == 1 {
		// Fast path: no goroutines, no synchronization.
		for i, item := range items {
			r, err := fn(i, item)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		errIndex = -1
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if errIndex == -1 || i < errIndex {
			errIndex, firstErr = i, err
		}
		mu.Unlock()
	}
	failedBefore := func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		return errIndex != -1 && errIndex < i
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				// Items after a known failure cannot change the outcome
				// (the lowest-index error wins); skip their work.
				if failedBefore(i) {
					continue
				}
				r, err := fn(i, items[i])
				if err != nil {
					fail(i, err)
					continue
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
