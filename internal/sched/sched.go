// Package sched assigns local fixed priorities to the tasks of a
// system: the classical rate- and deadline-monotonic policies, a
// HOPA-style heuristic (after Gutiérrez García & González Harbour)
// that distributes end-to-end deadlines over the tasks of each chain
// and iterates against the holistic analysis, and an Audsley-style
// optimal per-platform search — useful because the paper's model
// leaves priority assignment to the component designer. Assign
// dispatches over the four policies by name.
//
// The iterative searches (HOPA, Audsley) probe chains of systems one
// priority move apart — exactly the near-match shape the analysis
// service's incremental path serves — so their oracles run through a
// service.Session: each probe is seeded by the previous result and
// re-analyses only what the move can reach, revisited assignments come
// from the verdict memo, and sharing one service across searches
// shares all of it. The searches stop a probe early only on what they
// ask about: the Audsley search's candidate probes need only their
// candidate's verdict, so they name its transaction as the analysis
// goal (analysis.Options.Goal) and stop at its first deadline miss,
// while HOPA reads every response and so runs every probe to the fixed
// point. Both clear analysis.Options.StopAtDeadlineMiss on those
// probes, so it never changes the priorities a search installs.
// Results are bit-identical to probing a private engine without goals.
package sched

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hsched/internal/analysis"
	"hsched/internal/model"
	"hsched/internal/service"
)

// RateMonotonic assigns every task the priority rank of its
// transaction's period (shortest period → highest priority). Ties
// share a priority level. The system is mutated in place.
func RateMonotonic(sys *model.System) {
	byKey(sys, func(tr *model.Transaction, _ *model.Task) float64 { return tr.Period })
}

// DeadlineMonotonic assigns every task the priority rank of its
// transaction's end-to-end deadline (shortest deadline → highest
// priority). The system is mutated in place.
func DeadlineMonotonic(sys *model.System) {
	byKey(sys, func(tr *model.Transaction, _ *model.Task) float64 { return tr.Deadline })
}

// byKey ranks all tasks globally by a key: smaller key → higher
// priority; equal keys share a level.
func byKey(sys *model.System, key func(*model.Transaction, *model.Task) float64) {
	var keys []float64
	for i := range sys.Transactions {
		tr := &sys.Transactions[i]
		for j := range tr.Tasks {
			keys = append(keys, key(tr, &tr.Tasks[j]))
		}
	}
	sort.Float64s(keys)
	keys = dedup(keys)
	rank := func(k float64) int {
		// Highest priority (len) for the smallest key.
		i := sort.SearchFloat64s(keys, k)
		return len(keys) - i
	}
	for i := range sys.Transactions {
		tr := &sys.Transactions[i]
		for j := range tr.Tasks {
			tr.Tasks[j].Priority = rank(key(tr, &tr.Tasks[j]))
		}
	}
}

func dedup(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// HOPAOptions tunes HOPA.
type HOPAOptions struct {
	// Iterations bounds the deadline-redistribution rounds; 0 selects
	// 10.
	Iterations int
	// Analysis configures the holistic oracle. Its StopAtDeadlineMiss
	// is ignored: the redistribution reads every response, so every
	// probe runs to the fixed point.
	Analysis analysis.Options
	// Service, when non-nil, is the analysis service the oracle probes
	// route through (via a probe Session) — sharing it across searches
	// shares its verdict memo. When nil, the search
	// runs a private single-shard service for its duration.
	Service *service.Service
}

func (o HOPAOptions) iterations() int {
	if o.Iterations <= 0 {
		return 10
	}
	return o.Iterations
}

// sessionFor returns a probe session on svc, or on a private
// single-shard service when svc is nil: the searches are sequential,
// so one stripe suffices, and the session's pinned seed plus
// the verdict memo are what turn a chain of one-priority-apart probes
// into memo hits and incremental re-analyses.
func sessionFor(svc *service.Service) *service.Session {
	if svc == nil {
		svc = service.New(service.Options{Shards: 1})
	}
	return svc.NewSession()
}

// HOPA searches a priority assignment for a system of multi-platform
// transactions: end-to-end deadlines are split into per-task local
// deadlines proportional to the tasks' scaled demand, priorities
// follow deadline-monotonically from the local deadlines, the system
// is analysed, and local deadlines are redistributed proportionally to
// each task's share of the chain's response time. The best assignment
// seen (schedulable with the largest minimum slack, or failing that
// the smallest worst normalised overshoot) is installed in the system,
// and the corresponding analysis result returned.
//
// The oracle runs through an analysis service (HOPAOptions.Service, or
// a private one); treat the returned result as read-only — it may be
// shared with the service's verdict memo.
func HOPA(sys *model.System, opt HOPAOptions) (*analysis.Result, error) {
	return HOPAContext(context.Background(), sys, opt)
}

// HOPAContext is HOPA with cancellation: the context is polled before
// every oracle probe — a warm service can answer every probe from its
// memo without ever observing the context, and the search must still
// honour a cancellation — and aborts the analyses themselves.
func HOPAContext(ctx context.Context, sys *model.System, opt HOPAOptions) (*analysis.Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	locals := make([][]float64, len(sys.Transactions))
	for i := range sys.Transactions {
		tr := &sys.Transactions[i]
		locals[i] = make([]float64, len(tr.Tasks))
		total := 0.0
		for j := range tr.Tasks {
			total += tr.Tasks[j].WCET / sys.Platforms[tr.Tasks[j].Platform].Alpha
		}
		for j := range tr.Tasks {
			locals[i][j] = tr.Deadline * (tr.Tasks[j].WCET / sys.Platforms[tr.Tasks[j].Platform].Alpha) / total
		}
	}

	type candidate struct {
		prios [][]int
		res   *analysis.Result
		score float64 // larger is better
	}
	var best *candidate

	// Only priorities change between rounds, so a probe session keeps
	// every round one edit away from its pinned previous result: the
	// re-analysis replays whatever the priority moves provably cannot
	// reach, and revisited assignments are answered by the memo.
	sess := sessionFor(opt.Service)
	aopt := opt.Analysis
	aopt.StopAtDeadlineMiss = false
	for round := 0; round < opt.iterations(); round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
		assignByLocalDeadlines(sys, locals)
		res, err := sess.AnalyzeOptions(ctx, sys, aopt)
		if err != nil {
			return nil, err
		}
		score := scoreOf(res)
		if best == nil || score > best.score {
			best = &candidate{prios: snapshotPriorities(sys), res: res, score: score}
		}
		// Redistribute: local deadline share follows the observed
		// response share of each task within its chain.
		for i := range sys.Transactions {
			tr := &sys.Transactions[i]
			end := res.Tasks[i][len(tr.Tasks)-1].Worst
			if math.IsInf(end, 1) || end <= 0 {
				continue
			}
			prev := 0.0
			for j := range tr.Tasks {
				r := res.Tasks[i][j].Worst
				share := (r - prev) / end
				if share < 1e-3 {
					share = 1e-3
				}
				// Damped move toward the response-proportional split.
				locals[i][j] = 0.5*locals[i][j] + 0.5*tr.Deadline*share
				prev = r
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("sched: HOPA produced no assignment")
	}
	restorePriorities(sys, best.prios)
	return best.res, nil
}

// unboundedPenalty separates the score bands of assignments with
// unbounded (diverging) transaction responses: each unbounded chain
// costs one penalty, so candidates first compare by how many chains
// diverge and only then by the slack of the bounded ones. The finite
// slack contribution is clamped to ±slackClamp < unboundedPenalty/2,
// so the bands can never overlap however astronomic an overshoot gets
// — beyond the clamp two failures are equally hopeless anyway.
const (
	unboundedPenalty = 1e9
	slackClamp       = unboundedPenalty / 4
)

// scoreOf prefers schedulable results with large minimum slack and
// penalises unschedulable ones by their worst normalised overshoot
// (the most negative slack), so the search keeps the least-bad failing
// assignment rather than the first one it saw. Assignments with
// unbounded responses rank below every bounded one, ordered by how
// many chains diverge and then by the slack of those that do not.
func scoreOf(res *analysis.Result) float64 {
	minSlack := math.Inf(1)
	unbounded := 0
	for i := range res.Tasks {
		tr := res.System.Transactions[i]
		r := res.TransactionResponse(i)
		if math.IsInf(r, 1) {
			unbounded++
			continue
		}
		slack := (tr.Deadline - r) / tr.Deadline
		if slack < minSlack {
			minSlack = slack
		}
	}
	if unbounded == 0 {
		return math.Max(minSlack, -slackClamp)
	}
	if math.IsInf(minSlack, 1) {
		// Every chain diverges: nothing finite left to rank by.
		minSlack = 0
	}
	minSlack = math.Max(math.Min(minSlack, slackClamp), -slackClamp)
	return minSlack - unboundedPenalty*float64(unbounded)
}

func assignByLocalDeadlines(sys *model.System, locals [][]float64) {
	type entry struct {
		i, j int
		d    float64
	}
	var all []entry
	for i := range sys.Transactions {
		for j := range sys.Transactions[i].Tasks {
			all = append(all, entry{i, j, locals[i][j]})
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].d > all[b].d })
	for rank, e := range all {
		sys.Transactions[e.i].Tasks[e.j].Priority = rank + 1
	}
}

func snapshotPriorities(sys *model.System) [][]int {
	out := make([][]int, len(sys.Transactions))
	for i := range sys.Transactions {
		out[i] = make([]int, len(sys.Transactions[i].Tasks))
		for j := range sys.Transactions[i].Tasks {
			out[i][j] = sys.Transactions[i].Tasks[j].Priority
		}
	}
	return out
}

func restorePriorities(sys *model.System, prios [][]int) {
	for i := range prios {
		for j := range prios[i] {
			sys.Transactions[i].Tasks[j].Priority = prios[i][j]
		}
	}
}
