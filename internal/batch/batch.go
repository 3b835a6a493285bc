// Package batch runs schedulability analyses and simulations over
// large collections of systems in parallel. Evaluation sweeps
// (acceptance ratios, soundness campaigns, design-space exploration)
// are embarrassingly parallel: every system is independent, so the
// package provides a deterministic parallel map with bounded workers,
// first-error propagation, optional progress reporting and per-worker
// state (MapWorkers) for reusing expensive resources such as
// analysis engines across items.
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
	// Progress, when non-nil, is called after every completed item
	// with the number of items done so far. It must be safe for
	// concurrent use (the package serialises calls).
	Progress func(done, total int)

	// Lend, when non-nil, receives one Release per worker goroutine as
	// it exits, donating the slot the worker no longer occupies. It is
	// the bridge between a Map's outer fan-out and the nested MapRange
	// calls inside its items: a round whose cheap items drain early
	// hands the freed workers to the expensive items still sweeping,
	// keeping the global goroutine bound while eliminating the
	// straggler tail.
	Lend *Budget
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
	return MapWorkers(n, opt,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (T, error) { return fn(i) })
}

// MapWorkers is Map with per-worker state: newState runs once in each
// worker goroutine and the returned state is handed to every fn call
// that worker executes. It is the hook for reusing an expensive,
// non-shareable resource — typically an analysis.Engine — across the
// items of a sweep without locking and without one instance per item.
// State is never shared between goroutines, so fn may mutate it
// freely; results are still collected in index order.
func MapWorkers[S, T any](n int, opt Options, newState func() S, fn func(s S, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("batch: negative item count %d", n)
	}
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}

	var (
		next     atomic.Int64
		done     int // guarded by progMu
		firstErr error
		errOnce  sync.Once
		failed   atomic.Bool
		progMu   sync.Mutex
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
			if opt.Lend != nil {
				defer opt.Lend.Release()
			}
			state := newState()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() {
					return
				}
				v, err := fn(state, i)
				if err != nil {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("batch: item %d: %w", i, err)
						failed.Store(true)
					})
					return
				}
				out[i] = v
				if opt.Progress != nil {
					// Count under the lock, so calls see done in order.
					progMu.Lock()
					done++
					opt.Progress(done, n)
					progMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Budget is a shared, non-blocking bound on borrowed goroutines: a
// semaphore that hands out slots while any remain and refuses
// immediately otherwise. It is how nested parallelism (a huge exact
// scenario sweep inside an already-parallel analysis round) stays
// within one global goroutine budget instead of multiplying the two
// fan-outs: the outer stage sizes the budget to its spare workers, the
// inner stages borrow what they can and run inline when nothing is
// left. All methods are safe for concurrent use.
type Budget struct {
	free atomic.Int64
	cap  int64
}

// NewBudget returns a budget with n slots.
func NewBudget(n int) *Budget {
	b := &Budget{}
	b.Reset(n)
	return b
}

// Reset resizes the budget to n free slots. It must not race with
// TryAcquire/Release: call it only between the parallel phases that
// draw on the budget (the analysis engine resets per round, before the
// round's workers start).
func (b *Budget) Reset(n int) {
	if n < 0 {
		n = 0
	}
	b.cap = int64(n)
	b.free.Store(int64(n))
}

// Cap returns the budget's total slot count (free + acquired).
func (b *Budget) Cap() int {
	if b == nil {
		return 0
	}
	return int(b.cap)
}

// TryAcquire takes one slot if any is free, without blocking.
func (b *Budget) TryAcquire() bool {
	if b == nil {
		return false
	}
	for {
		n := b.free.Load()
		if n <= 0 {
			return false
		}
		if b.free.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// Release returns a previously acquired slot.
func (b *Budget) Release() { b.free.Add(1) }

// MapRange splits [0, n) into `chunks` contiguous, near-equal ranges
// and evaluates fn(chunk, lo, hi) for each, collecting the results in
// chunk-index order so the output is deterministic regardless of
// scheduling. The calling goroutine always participates; additional
// goroutines are borrowed from bud — re-tried at every chunk boundary,
// so slots an enclosing Map's workers lend back mid-sweep (see
// Options.Lend) are picked up within one chunk of becoming free. A nil
// or exhausted budget runs the whole range inline on the caller.
// Unlike Map, chunks are not cancelled on error — fn is expected to
// poll its own cancellation signal — and the first error in
// chunk-index order is returned, keeping the error deterministic too.
func MapRange[T any](n, chunks int, bud *Budget, fn func(chunk, lo, hi int) (T, error)) ([]T, error) {
	return MapRangeAligned(n, chunks, 1, bud, fn)
}

// MapRangeAligned is MapRange with every interior chunk boundary
// rounded down to a multiple of align, so a chunk never splits an
// align-sized block of the range. It is the contract the
// branch-and-bound exact sweep needs: aligning chunk boundaries to a
// cursor stride keeps whole subtrees inside one chunk, so a prefix
// bound refuted once is refuted for the entire subtree instead of
// re-checked across a chunk seam. Rounding can empty a chunk
// (lo == hi); fn is still called for it, so callers relying on
// per-chunk zero values being meaningful must handle empty spans.
// align < 1 is treated as 1, which makes the split identical to
// MapRange's.
func MapRangeAligned[T any](n, chunks, align int, bud *Budget, fn func(chunk, lo, hi int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("batch: negative range size %d", n)
	}
	if chunks > n {
		chunks = n
	}
	if chunks < 1 {
		chunks = min(n, 1)
	}
	out := make([]T, chunks)
	if chunks == 0 {
		return out, nil
	}
	if align < 1 {
		align = 1
	}
	errs := make([]error, chunks)
	base, rem := n/chunks, n%chunks
	span := func(c int) (lo, hi int) {
		lo = c*base + min(c, rem)
		hi = lo + base
		if c < rem {
			hi++
		}
		if align > 1 {
			lo -= lo % align
			if c+1 < chunks {
				hi -= hi % align
			}
		}
		return lo, hi
	}

	var (
		next atomic.Int64
		wg   sync.WaitGroup
		run  func()
	)
	run = func() {
		for {
			c := int(next.Add(1) - 1)
			if c >= chunks {
				return
			}
			// Before settling into this chunk, try to put one more
			// borrowed goroutine on the remaining ones; helpers ramp up
			// the same way, so freed budget is absorbed geometrically.
			// (The helper's wg.Add runs while this worker is still
			// registered, so the counter can never be zero concurrently
			// with the caller's Wait.)
			if int(next.Load()) < chunks && bud.TryAcquire() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer bud.Release()
					run()
				}()
			}
			lo, hi := span(c)
			out[c], errs[c] = fn(c, lo, hi)
		}
	}
	run()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Count evaluates pred(i) for i in [0, n) in parallel and returns how
// many returned true — the shape of every acceptance-ratio experiment.
func Count(n int, opt Options, pred func(i int) (bool, error)) (int, error) {
	hits, err := Map(n, opt, func(i int) (bool, error) { return pred(i) })
	if err != nil {
		return 0, err
	}
	c := 0
	for _, h := range hits {
		if h {
			c++
		}
	}
	return c, nil
}
