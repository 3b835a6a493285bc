package analysis

import (
	"context"
	"sync"

	"hsched/internal/model"
)

// engines pools the option-free engines behind the package-level
// entry points, so a call reuses a previous call's buffers instead of
// allocating its own. An engine carries buffers, never values, from
// one analysis to the next (the Engine doc), so a pooled engine's
// outcome and work counts equal a fresh one's.
var engines = sync.Pool{New: func() any { return NewEngine(Options{}) }}

// pooled runs one analysis on a pooled engine under opt. The engine
// goes back to the pool with its options reset, so it keeps no
// Recorder closure alive.
func pooled(opt Options, run func(*Engine) (*Result, error)) (*Result, error) {
	e := engines.Get().(*Engine)
	e.opt = opt
	res, err := run(e)
	e.opt, e.an.opt = Options{}, Options{}
	engines.Put(e)
	return res, err
}

// AnalyzeStatic runs one pass of the static-offset analysis of Section
// 3.1: every task keeps the offset φ and jitter J stored in the
// system, and its worst-case response time is computed under them. Use
// it when offsets and jitters are externally known; for chains whose
// offsets derive from predecessor completions, use Analyze.
//
// Like every package-level entry point it runs on a pooled engine, so
// repeated calls reuse buffers without the caller holding an Engine.
func AnalyzeStatic(sys *model.System, opt Options) (*Result, error) {
	return AnalyzeStaticContext(context.Background(), sys, opt)
}

// Analyze runs the dynamic-offset holistic analysis of Section 3.2:
// starting from J = 0 and φ = Rbest (Eq. 18), the static analysis is
// repeated, each round deriving every non-initial task's jitter from
// its predecessor's previous-round response time, until the response
// times reach a fixed point. Convergence is guaranteed by the monotone
// dependency of response times on jitters as long as busy periods stay
// bounded; unbounded tasks are reported with R = +Inf and terminate
// the iteration with Schedulable = false.
//
// The offsets and jitters of the first task of each transaction are
// external inputs (release offset/jitter) and are preserved from the
// input system; offsets of later tasks are overwritten by Eq. 18.
//
// It runs on a pooled engine, like every package-level entry point.
func Analyze(sys *model.System, opt Options) (*Result, error) {
	return AnalyzeFromContext(context.Background(), nil, sys, opt)
}

// AnalyzeContext is Analyze with cancellation: see
// Engine.AnalyzeContext for the polling points. Long-running callers
// (services, admission controllers) should prefer it — or hold a
// Service from package service, which adds verdict memoisation on top.
func AnalyzeContext(ctx context.Context, sys *model.System, opt Options) (*Result, error) {
	return AnalyzeFromContext(ctx, nil, sys, opt)
}

// AnalyzeFromContext is Engine.AnalyzeFromContext on a pooled engine:
// the incremental re-analysis of sys seeded with prev, bit-identical to
// AnalyzeContext. A nil prev runs cold.
func AnalyzeFromContext(ctx context.Context, prev *Result, sys *model.System, opt Options) (*Result, error) {
	return pooled(opt, func(e *Engine) (*Result, error) { return e.AnalyzeFromContext(ctx, prev, sys) })
}

// AnalyzeStaticContext is AnalyzeStatic with cancellation.
func AnalyzeStaticContext(ctx context.Context, sys *model.System, opt Options) (*Result, error) {
	return pooled(opt, func(e *Engine) (*Result, error) { return e.AnalyzeStaticContext(ctx, sys) })
}

// BestBounds exposes the best-case bounds used by Eq. 18: for every
// task, a lower bound on its start time and on its completion time,
// both measured from the transaction activation. tight selects the
// per-run burstiness refinement described in the package
// documentation.
func BestBounds(sys *model.System, tight bool) (starts, completions [][]float64) {
	return bestBounds(sys, tight)
}
