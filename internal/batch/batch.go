// Package batch runs schedulability analyses and simulations over
// large collections of systems in parallel. Evaluation sweeps
// (acceptance ratios, soundness campaigns, design-space exploration)
// are embarrassingly parallel: every system is independent, so the
// package provides a deterministic parallel map with bounded workers
// and first-error propagation.
package batch

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options tunes a batch run.
type Options struct {
	// Workers bounds the concurrent evaluations; 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Map evaluates fn(i) for i in [0, n) on a bounded worker pool and
// collects the results in index order, so the output is deterministic
// regardless of scheduling. The first error cancels the remaining
// work (already-started evaluations finish) and is returned.
func Map[T any](n int, opt Options, fn func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("batch: negative item count %d", n)
	}
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}

	var (
		next     atomic.Int64
		firstErr error
		errOnce  sync.Once
		failed   atomic.Bool
		wg       sync.WaitGroup
	)

	workers := opt.workers()
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() {
					return
				}
				v, err := fn(i)
				if err != nil {
					// Stop the other workers before formatting the error,
					// so they claim no further items meanwhile.
					failed.Store(true)
					errOnce.Do(func() {
						firstErr = fmt.Errorf("batch: item %d: %w", i, err)
					})
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
