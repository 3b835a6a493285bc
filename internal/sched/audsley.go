package sched

import (
	"context"
	"fmt"
	"sort"

	"hsched/internal/analysis"
	"hsched/internal/model"
	"hsched/internal/service"
)

// audsleyUnassigned is the temporary priority of not-yet-assigned
// tasks during the bottom-up search: above every real level, so the
// candidate under test sees the maximal interference from its own
// platform.
const audsleyUnassigned = 1 << 20

// AudsleyOptions tunes AudsleyContext.
type AudsleyOptions struct {
	// Analysis configures the holistic oracle. Its stop rule is the
	// search's to set: every candidate probe names the candidate's
	// transaction as its Goal and clears StopAtDeadlineMiss, so the
	// probe stops only at that transaction's first deadline miss; the
	// "no candidate" and final probes keep StopAtDeadlineMiss and run
	// without a goal. A candidate is accepted only when its probe
	// proves the deadline met (analysis.Result.MeetsDeadline), so
	// StopAtDeadlineMiss never changes the priorities installed.
	Analysis analysis.Options
	// Service, when non-nil, is the analysis service the oracle probes
	// route through (via a probe Session): consecutive probes are one
	// priority move apart, so the session's pinned seed turns most of
	// them into incremental re-analyses, and re-visited assignments
	// (including the final verification of the last accepted probe)
	// are answered by the verdict memo. When nil, the search runs a
	// private single-shard service for its duration. Results are
	// bit-identical to probing a private engine either way.
	Service *service.Service
}

// Audsley performs Audsley-style optimal priority assignment per
// platform, bottom-up, using the holistic analysis as the
// schedulability oracle: for each priority level from the lowest, it
// looks for a task that still meets its transaction deadline when
// assigned that level while every unassigned task of the same platform
// interferes from above.
//
// For systems of independent single-task transactions the procedure is
// the classical optimal priority assignment (response times at the
// lowest level are independent of the relative order of the tasks
// above). For multi-platform transaction chains the per-candidate
// check is heuristic — a transaction's end-to-end response also
// depends on platforms not yet assigned, whose tasks interfere from a
// shared provisional top level — so the order in which platforms are
// processed matters. The search therefore tries every rotation of the
// platform order (at most M attempts) and keeps the first complete
// assignment the full analysis accepts.
//
// The system's priorities are overwritten with the found assignment
// (or the last attempted one when the search fails). It returns the
// final analysis result and whether a full schedulable assignment was
// found; treat the result as read-only — it may be shared with the
// oracle service's verdict memo.
func Audsley(sys *model.System, opt analysis.Options) (*analysis.Result, bool, error) {
	return AudsleyContext(context.Background(), sys, AudsleyOptions{Analysis: opt})
}

// AudsleyContext is Audsley with cancellation and an explicit oracle
// service. The context is polled before every probe — a warm service
// can answer the whole search from its memo without any analysis ever
// observing the context, and the search must still honour a
// cancellation — and aborts the analyses themselves.
func AudsleyContext(ctx context.Context, sys *model.System, opt AudsleyOptions) (*analysis.Result, bool, error) {
	if err := sys.Validate(); err != nil {
		return nil, false, err
	}
	type ref struct{ i, j int }
	perPlatform := make(map[int][]ref)
	for i := range sys.Transactions {
		for j := range sys.Transactions[i].Tasks {
			t := &sys.Transactions[i].Tasks[j]
			perPlatform[t.Platform] = append(perPlatform[t.Platform], ref{i, j})
		}
	}
	platforms := make([]int, 0, len(perPlatform))
	for m := range perPlatform {
		platforms = append(platforms, m)
	}
	sort.Ints(platforms)

	task := func(r ref) *model.Task { return &sys.Transactions[r.i].Tasks[r.j] }

	// One probe session serves every oracle query of the search: only
	// priorities change between probes, so each probe re-analyses
	// incrementally against the session's pinned previous result, and
	// assignments the search revisits (notably the final analysis of
	// an attempt, which re-states the last accepted probe) come
	// straight from the service's verdict memo.
	// A candidate probe's only goal is its candidate's transaction (see
	// AudsleyOptions.Analysis); goal 0 keeps the caller's
	// StopAtDeadlineMiss.
	sess := sessionFor(opt.Service)
	probe := func(goal int) (*analysis.Result, error) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
		aopt := opt.Analysis
		aopt.Goal = goal
		aopt.StopAtDeadlineMiss = aopt.StopAtDeadlineMiss && goal == 0
		return sess.AnalyzeOptions(ctx, sys, aopt)
	}

	attempt := func(order []int) (*analysis.Result, bool, error) {
		for i := range sys.Transactions {
			for j := range sys.Transactions[i].Tasks {
				sys.Transactions[i].Tasks[j].Priority = audsleyUnassigned
			}
		}
		for _, m := range order {
			refs := perPlatform[m]
			assigned := make([]bool, len(refs))
			for level := 1; level <= len(refs); level++ {
				found := false
				for c := range refs {
					if assigned[c] {
						continue
					}
					task(refs[c]).Priority = level
					res, err := probe(refs[c].i + 1)
					if err != nil {
						return nil, false, fmt.Errorf("sched: audsley oracle: %w", err)
					}
					if res.MeetsDeadline(refs[c].i) {
						assigned[c] = true
						found = true
						break
					}
					task(refs[c]).Priority = audsleyUnassigned
				}
				if !found {
					res, err := probe(0)
					if err != nil {
						return nil, false, err
					}
					return res, false, nil
				}
			}
		}
		res, err := probe(0)
		if err != nil {
			return nil, false, err
		}
		return res, res.Schedulable, nil
	}

	var last *analysis.Result
	for rot := 0; rot < len(platforms); rot++ {
		order := append(append([]int(nil), platforms[rot:]...), platforms[:rot]...)
		res, ok, err := attempt(order)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return res, true, nil
		}
		last = res
	}
	return last, false, nil
}
