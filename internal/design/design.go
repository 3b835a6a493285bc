// Package design implements the platform-parameter optimisation the
// paper lists as future work (Section 5): "an optimization method to
// assign the parameters (α, β, Δ) to each abstract platform" so that
// the system is schedulable with the least total bandwidth.
//
// A platform is searched within a Family: a one-parameter curve from
// bandwidth α to a full (α, Δ, β) triple, typically the periodic
// server of a fixed period (larger budget ⇒ larger rate and smaller
// delay). Minimize runs coordinate descent over the platforms, each
// step binary-searching the minimal feasible bandwidth of one platform
// while the others stay fixed; schedulability is decided by the
// holistic analysis of package analysis.
package design

import (
	"context"
	"fmt"
	"math"

	"hsched/internal/analysis"
	"hsched/internal/model"
	"hsched/internal/platform"
	"hsched/internal/service"
)

// Family maps a bandwidth α ∈ (0, 1] to full platform parameters.
type Family func(alpha float64) platform.Params

// PollingFamily returns the family of periodic servers with the given
// replenishment period: α ↦ (α, 2P(1−α), 2Pα(1−α)).
func PollingFamily(period float64) Family {
	return func(alpha float64) platform.Params {
		if alpha >= 1 {
			return platform.Dedicated()
		}
		return platform.PeriodicServer{Q: alpha * period, P: period}.Params()
	}
}

// TDMAFamily returns the family of static partitions with the given
// frame: α ↦ (α, F(1−α), Fα(1−α)).
func TDMAFamily(frame float64) Family {
	return func(alpha float64) platform.Params {
		if alpha >= 1 {
			return platform.Dedicated()
		}
		return platform.TDMA{Slot: alpha * frame, Frame: frame}.Params()
	}
}

// PfairFamily returns the family of proportional-share servers with
// the given quantum: α ↦ (α, q/α, q).
func PfairFamily(quantum float64) Family {
	return func(alpha float64) platform.Params {
		if alpha >= 1 {
			return platform.Dedicated()
		}
		return platform.Pfair{Weight: alpha, Quantum: quantum}.Params()
	}
}

// Options tunes Minimize.
type Options struct {
	// Tolerance is the bandwidth resolution of the binary search;
	// 0 selects 1e-3.
	Tolerance float64
	// Passes bounds the coordinate-descent sweeps; 0 selects 8.
	Passes int
	// Analysis configures the schedulability oracle.
	Analysis analysis.Options
	// Service, when non-nil, is the analysis service the feasibility
	// oracle queries — sharing it across searches shares its verdict
	// memo and intern pool. When nil, Minimize runs a private
	// single-shard service for the duration of the search: the binary
	// searches and coordinate-descent passes re-probe identical
	// (system, platform-parameters) points, which the memo answers
	// outright, and every fresh probe is one platform away from the
	// search session's previous result, which the incremental path
	// re-analyses by replaying the unaffected transactions (see
	// ServiceStats.DeltaHits / RoundsSaved).
	Service *service.Service
}

func (o Options) tolerance() float64 {
	if o.Tolerance <= 0 {
		return 1e-3
	}
	return o.Tolerance
}

func (o Options) passes() int {
	if o.Passes <= 0 {
		return 8
	}
	return o.Passes
}

// Result reports the outcome of a Minimize run.
type Result struct {
	// Alphas are the final per-platform bandwidths.
	Alphas []float64
	// Platforms are the corresponding full parameters.
	Platforms []platform.Params
	// TotalBandwidth is Σ Alphas, the minimised objective.
	TotalBandwidth float64
	// Analysis is the verdict at the final parameters. It may be
	// shared with the feasibility service's verdict memo (and thus
	// with other callers): treat it as read-only.
	Analysis *analysis.Result
}

// Minimize searches, within one Family per platform, the per-platform
// bandwidths minimising total bandwidth subject to schedulability.
// The input system's platform parameters are ignored (replaced by the
// family values); the system must be schedulable at full bandwidth
// (α = 1 everywhere), otherwise an error is returned.
func Minimize(sys *model.System, families []Family, opt Options) (*Result, error) {
	return MinimizeContext(context.Background(), sys, families, opt)
}

// MinimizeContext is Minimize with cancellation: a cancelled context
// aborts the search between (and inside) oracle queries and returns an
// error wrapping ctx.Err().
func MinimizeContext(ctx context.Context, sys *model.System, families []Family, opt Options) (*Result, error) {
	if len(families) != len(sys.Platforms) {
		return nil, fmt.Errorf("design: %d families for %d platforms", len(families), len(sys.Platforms))
	}
	svc := opt.Service
	if svc == nil {
		// A private single-shard service: the search is sequential, so
		// one stripe suffices; the memo is what matters here.
		svc = service.New(service.Options{Shards: 1})
	}

	// All oracle traffic flows through one probe session: the searches
	// below move one platform's parameters at a time, so the session's
	// pinned previous result seeds each fresh probe's incremental
	// re-analysis deterministically.
	sess := svc.NewSession()

	work := sys.Clone()
	alphas := make([]float64, len(families))
	for m := range alphas {
		alphas[m] = 1
		work.Platforms[m] = families[m](1)
	}
	res, err := sess.AnalyzeOptions(ctx, work, opt.Analysis)
	if err != nil {
		return nil, err
	}
	if !res.Schedulable {
		return nil, fmt.Errorf("design: system unschedulable even at full bandwidth on every platform")
	}

	// Lower bounds: a platform can never go below its demand.
	low := make([]float64, len(families))
	for _, tr := range work.Transactions {
		for _, t := range tr.Tasks {
			low[t.Platform] += t.WCET / tr.Period
		}
	}

	// The feasibility oracle is evaluated hundreds of times on the
	// same system shape (only platform parameters move) and the
	// searches below revisit parameter points — the service's verdict
	// memo answers every revisited point without re-running the
	// analysis, and fresh probes run incrementally against the session's
	// pinned previous result (the transactions are untouched, so only the tasks of the
	// platform being searched — plus whatever their changed responses
	// reach — are recomputed).
	// Analysis errors (e.g. scenario overflow of the exact oracle) are
	// treated as infeasible points, matching the pre-service
	// behaviour; cancellation aborts the whole search.
	oracleOpt := opt.Analysis
	oracleOpt.StopAtDeadlineMiss = true
	feasible := func() (bool, error) {
		// Poll ctx here, not just inside the analysis: with a warm
		// shared service every probe can be a memo hit that never
		// observes the context, and the search must still honour
		// cancellation.
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("design: %w", err)
		}
		r, err := sess.AnalyzeOptions(ctx, work, oracleOpt)
		if err != nil {
			if ctx.Err() != nil {
				return false, fmt.Errorf("design: %w", err)
			}
			return false, nil
		}
		res = r
		return r.Schedulable, nil
	}

	tol := opt.tolerance()

	// Phase 1: uniform shrink. Scale every platform between its demand
	// lower bound and full bandwidth by a common factor λ and binary
	// search the minimal feasible λ. This distributes the end-to-end
	// slack evenly and keeps the subsequent per-platform descent from
	// greedily draining all slack into whichever platform it visits
	// first.
	apply := func(lambda float64) {
		for m := range families {
			a := math.Min(low[m], 1)*(1-lambda) + lambda
			if a > 1 {
				a = 1
			}
			alphas[m] = a
			work.Platforms[m] = families[m](a)
		}
	}
	lo, hi := 0.0, 1.0
	for hi-lo > tol {
		mid := (lo + hi) / 2
		apply(mid)
		ok, err := feasible()
		if err != nil {
			return nil, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	apply(hi)
	if ok, err := feasible(); err != nil {
		return nil, err
	} else if !ok {
		apply(1)
		if _, err := feasible(); err != nil {
			return nil, err
		}
	}

	// Phase 2: per-platform coordinate descent from the uniform point.
	for pass := 0; pass < opt.passes(); pass++ {
		improved := false
		for m := range families {
			lo, hi := math.Min(low[m]+1e-9, 1), alphas[m]
			if hi-lo <= tol {
				continue
			}
			// Binary search the minimal feasible α of platform m.
			for hi-lo > tol {
				mid := (lo + hi) / 2
				work.Platforms[m] = families[m](mid)
				ok, err := feasible()
				if err != nil {
					return nil, err
				}
				if ok {
					hi = mid
				} else {
					lo = mid
				}
			}
			work.Platforms[m] = families[m](hi)
			ok, err := feasible()
			if err != nil {
				return nil, err
			}
			if !ok {
				// Numerical edge: restore the last known-good value.
				work.Platforms[m] = families[m](alphas[m])
				if _, err := feasible(); err != nil {
					return nil, err
				}
				continue
			}
			if hi < alphas[m]-tol/2 {
				improved = true
			}
			alphas[m] = hi
		}
		if !improved {
			break
		}
	}

	out := &Result{Alphas: alphas, Analysis: res}
	for m, a := range alphas {
		out.Platforms = append(out.Platforms, families[m](a))
		out.TotalBandwidth += a
	}
	return out, nil
}
