package analysis

import (
	"math"
	"runtime"

	"hsched/internal/model"
)

// Options tunes the analysis. The zero value selects sensible
// defaults: approximate analysis, ε = 1e-9, at most 1000 holistic
// iterations and 10^6 inner fixed-point steps.
type Options struct {
	// Exact selects the exact analysis of Section 3.1.1, which
	// enumerates every scenario vector ν (Eq. 12). Exponential in the
	// number of transactions with interfering tasks; guarded by
	// MaxScenarios.
	Exact bool

	// MaxScenarios bounds the scenario count of the exact analysis
	// for a single task; ErrTooManyScenarios is returned beyond it.
	// Defaults to 1<<20.
	MaxScenarios int

	// Epsilon is the convergence tolerance of all fixed-point
	// iterations and the guard band of floor/ceil evaluations.
	// Defaults to 1e-9.
	Epsilon float64

	// MaxIterations bounds the outer holistic iteration. Defaults to
	// 1000.
	MaxIterations int

	// MaxInner bounds every inner fixed-point iteration (busy-period
	// length and completion times) and the number of jobs one busy
	// period may span. If either is exceeded the task's response time
	// is reported as +Inf. Defaults to 10^6.
	MaxInner int

	// TightBestCase grants the platform burstiness credit β once per
	// run of consecutive same-platform tasks of a transaction instead of
	// once per task (see BestBounds); the refined bound is never below
	// the simple supply-based one. The bounds depend only on BCETs,
	// platforms and the first task's release offset, so they are
	// computed once per analysis, before the first round; no round's
	// responses feed them. Off by default: the paper's example uses the
	// simple bound, and Table 3 is reproduced with it.
	TightBestCase bool

	// StopAtDeadlineMiss makes every transaction a goal (see Goal):
	// the holistic iteration ends at the first round in which any
	// transaction's end-to-end response exceeds its deadline plus ε.
	// Verdict-only consumers (the design search, sensitivity analysis,
	// acceptance sweeps) enable it for speed; reporting consumers leave
	// it off.
	StopAtDeadlineMiss bool

	// Goal names one transaction whose verdict is all the caller
	// needs, by its 1-based number in the paper's notation (Γ1 is 1);
	// 0, the zero value, means no goal. Responses never decrease from
	// one round to the next, so a goal's deadline miss in any round is
	// final: once a round ends with a goal's end-to-end response above
	// its deadline plus ε, the iteration stops and the result reports
	// StoppedAtGoal. Its bounds are then lower bounds of the fixed
	// point, so MeetsDeadline is false for every transaction. A run
	// that never stops reaches the same fixed point, bit for bit, as
	// one without a goal. A negative goal, or one above the number of
	// transactions, is an error; the one-pass static analysis ignores
	// the stop rule. The Audsley priority search (package sched) sets
	// it to the candidate's transaction on every candidate probe.
	Goal int

	// Recorder, when non-nil, is invoked after every holistic
	// iteration with the iteration index (0-based) and a snapshot of
	// the per-task jitters and response times. It powers the
	// reproduction of Table 3. Snapshots are fully detached from the
	// engine and stay valid after the analysis returns.
	//
	// Recorder is a side-effect hook, not an analysis parameter: it
	// never changes the computed bounds, so it is excluded from
	// ReplayKey and so from cache keys.
	// Queries carrying a Recorder bypass the service's verdict memo
	// entirely — a cache hit would silence the callbacks.
	Recorder func(iteration int, snapshot *Result)

	// DisableReplayState skips the per-round history recording that
	// makes a Result usable as an Engine.AnalyzeFrom seed. The
	// recording costs one detached copy of every round's TaskResults
	// (bounded, but pure overhead for callers that never re-analyse
	// mutations). The analysis service sets it on every analysis that
	// is not a session probe, and the sensitivity search sets it on its
	// probes; tight search loops over unrelated systems should set it
	// too. Like Workers it never changes the computed bounds, so it is
	// excluded from cache keys and replay-compatibility checks.
	DisableReplayState bool

	// Workers bounds the goroutines computing per-task response times
	// within one fixed-point round. 0 selects runtime.GOMAXPROCS(0);
	// 1 runs strictly sequentially, and rounds with only a handful of
	// tasks run sequentially regardless (the fan-out would cost more
	// than the work). Successful results are identical for every
	// worker count: tasks are independent within a round and the
	// engine collects them in index order. (A failing exact analysis
	// reports the same wrapped error, but the task it names may vary
	// with scheduling.) Callers that already run many analyses in
	// parallel (batch sweeps, design searches) should set 1 to avoid
	// oversubscription.
	Workers int
}

// ReplayKey is the comparable projection of every Options field that
// changes computed bounds (defaults materialised). Two runs with
// equal keys follow identical trajectories on identical systems —
// the precondition for AnalyzeFrom replaying one run's recorded
// rounds inside another. Fields that never change results (Workers,
// Recorder, DisableReplayState) are deliberately absent. This is the
// single enumeration of semantics-affecting options: the analysis
// service's memo keys embed it too, so a future Options field added
// here is automatically respected by both the replay gate and the
// verdict cache.
//
// The stop rule (Goal, or StopAtDeadlineMiss: every transaction a
// goal) is one field of the key, since a stopped result differs from
// the fixed point, but it only ever cuts the stop-free trajectory
// short: a stopped run's recorded rounds are a prefix of the run
// without a stop, whichever rule stopped it. So the replay gate
// compares keys WithoutStop, and the service memo keeps every result
// that did not stop under the stop-free key.
type ReplayKey struct {
	exact         bool
	maxScenarios  int
	epsilon       float64
	maxIterations int
	maxInner      int
	tightBestCase bool
	stop          int
}

// ReplayKey returns the options' semantic identity; see the type.
func (o Options) ReplayKey() ReplayKey {
	return ReplayKey{
		exact:         o.Exact,
		maxScenarios:  o.maxScenarios(),
		epsilon:       o.eps(),
		maxIterations: o.maxIter(),
		maxInner:      o.maxInner(),
		tightBestCase: o.TightBestCase,
		stop:          o.stop(),
	}
}

// WithoutStop returns the key with its stop rule cleared: the key of
// the same options with no goal and no StopAtDeadlineMiss.
func (k ReplayKey) WithoutStop() ReplayKey {
	k.stop = 0
	return k
}

// stopAll is the stop rule of StopAtDeadlineMiss: every transaction is
// a goal.
const stopAll = -1

// stop returns the options' stop rule: 0 for none, stopAll, or the
// goal's 1-based number.
func (o Options) stop() int {
	if o.StopAtDeadlineMiss {
		return stopAll
	}
	return o.Goal
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) maxScenarios() int {
	if o.MaxScenarios <= 0 {
		return 1 << 20
	}
	return o.MaxScenarios
}

func (o Options) eps() float64 {
	if o.Epsilon <= 0 {
		return 1e-9
	}
	return o.Epsilon
}

func (o Options) maxIter() int {
	if o.MaxIterations <= 0 {
		return 1000
	}
	return o.MaxIterations
}

func (o Options) maxInner() int {
	if o.MaxInner <= 0 {
		return 1_000_000
	}
	return o.MaxInner
}

// TaskResult holds the per-task outcome of an analysis round.
type TaskResult struct {
	// Offset is the (possibly reduced-to-be-derived) activation offset
	// φ used in the final round.
	Offset float64
	// Jitter is the activation jitter J used in the final round.
	Jitter float64
	// Best is the lower bound on the task's response time (best-case
	// completion measured from the transaction activation).
	Best float64
	// Worst is the upper bound R on the task's response time measured
	// from the transaction activation. +Inf if the busy period did not
	// converge (platform overload).
	Worst float64
	// CriticalInitiator is the task index (within the same
	// transaction) whose maximally-jittered release started the
	// worst-case busy period — the scenario c attaining Worst. It is
	// −1 when the response time is unbounded.
	CriticalInitiator int
	// CriticalJob is the job index p of the task under analysis that
	// attained Worst (job p is released in ((p−1)T, pT]; p ≤ 0 marks a
	// jitter-pended job released before the busy period began).
	CriticalJob int
}

// Result is the outcome of an analysis: per-task bounds plus the
// system-level verdict.
type Result struct {
	// System is the analysed copy of the input, with the offsets and
	// jitters of the final iteration filled in.
	System *model.System
	// Tasks mirrors System.Transactions: Tasks[i][j] is the result for
	// τ(i+1),(j+1).
	Tasks [][]TaskResult
	// Iterations is the number of holistic rounds executed (1 for the
	// static analysis).
	Iterations int
	// Converged reports whether the verdict is final: the holistic
	// iteration reached a fixed point within Options.MaxIterations,
	// stopped at a goal's deadline miss (StoppedAtGoal), or ended on an
	// unbounded response. A run cut by MaxIterations is not converged.
	Converged bool
	// StoppedAtGoal reports that the iteration ended at a round where
	// a goal transaction (Options.Goal; with StopAtDeadlineMiss, any
	// transaction) missed its deadline, before the fixed point: the
	// bounds are lower bounds, and Schedulable and every MeetsDeadline
	// are false.
	StoppedAtGoal bool
	// Schedulable reports whether every transaction meets its deadline
	// (MeetsDeadline), so it is false whenever the bounds are not the
	// fixed point.
	Schedulable bool

	// Delta is non-nil when the result was produced by the incremental
	// path (Engine.AnalyzeFrom with a usable seed) and describes how
	// much work the replay skipped. The result itself is bit-identical
	// to a cold analysis either way.
	Delta *DeltaInfo

	// ScenariosPruned counts the exact scenario vectors the admissible
	// prune skipped across every task and round of this analysis — the
	// work the branch-and-bound discipline saved. Always 0 for the
	// approximate analysis. Like Delta it is a work profile, not part
	// of the analysis outcome: the count is the same for every worker
	// count and for every engine history (no sweep carries state from
	// an earlier sweep), but depends on the seed on the delta path
	// (tasks copied from it sweep nothing, so they contribute no
	// prunes) — the bounds and verdict are bit-identical regardless.
	ScenariosPruned int64

	// SubtreesPruned counts the whole-subtree cursor jumps among the
	// pruned scenarios: each is one branch-and-bound decision that
	// skipped a contiguous run of scenario vectors (the rest of the
	// subtree fixing the digits of the Γa axis and the axes above it,
	// whose per-initiator bound failed) with a single seek instead of
	// stepping through them. A sweep whose Γa axis is axis 0 steps
	// instead, so its prunes count no subtree. The ratio
	// ScenariosPruned/SubtreesPruned is the average subtree size the
	// bounds refuted. A work profile like ScenariosPruned, with the
	// same caveats.
	SubtreesPruned int64

	// InterferenceEvals counts the per-transaction interference terms
	// W^k_i (Eq. 11) the fixed points evaluated across every task and
	// round of this analysis, each W*_i (Eq. 15) counting one per
	// candidate initiator and the phase table's first-step row counting
	// like any other. It is the analysis kernel's deterministic work
	// count: the same for every worker count, with the caveats of
	// ScenariosPruned (tasks copied from the seed or from the previous
	// round evaluate nothing).
	InterferenceEvals int64

	// history is the replay state: every holistic round's detached
	// per-task results, recorded up to maxHistoryCells. It is what a
	// later AnalyzeFrom copies tasks from. Static analyses and
	// truncated recordings leave it short or empty — the delta path
	// then falls back (wholly or per-round) to computing.
	history [][][]TaskResult

	// rkey identifies the analysis semantics the result was computed
	// under; a seed is only valid for an analysis with the same key.
	rkey ReplayKey

	// eps is the convergence tolerance the result was computed under,
	// the guard band of MeetsDeadline.
	eps float64

	// fixed reports that the bounds are final upper bounds: the fixed
	// point of the holistic iteration, or the one static pass. A stop,
	// a MaxIterations cut and the exit on an unbounded response leave
	// it false.
	fixed bool
}

// DeltaInfo reports the work profile of an incremental analysis.
type DeltaInfo struct {
	// CleanTasks and DirtyTasks partition the system's tasks: a clean
	// task's parameters and interference set match its counterpart in
	// the seed, so any round may copy it from the seed's history; a
	// dirty task never is.
	CleanTasks, DirtyTasks int
	// ReplayedRounds is the number of holistic rounds the seed's
	// recorded history covered (rounds past the recording copy nothing
	// from the seed).
	ReplayedRounds int
	// TaskRoundsSaved is the number of per-task response computations
	// actually replaced by a copy from the seed, the service's
	// RoundsSaved currency. A clean task is copied only in the rounds
	// whose offsets and jitters it reads match the seed's, so this is
	// at most, not exactly, CleanTasks × ReplayedRounds.
	TaskRoundsSaved int
}

// HasReplayState reports whether the result carries the per-round
// history an AnalyzeFrom seed needs. Results of dynamic analyses
// normally do; static passes, analyses run with DisableReplayState and
// results trimmed by the history cap do not.
func (r *Result) HasReplayState() bool { return len(r.history) > 0 }

// WithoutReplayState returns the result stripped of its replay
// history: a shallow copy sharing every other field (or r itself when
// there is nothing to strip). The analysis service memoises stripped
// results and keeps a full one only as a session's pinned seed, so a
// large verdict memo does not pin thousands of unreachable histories.
func (r *Result) WithoutReplayState() *Result {
	if len(r.history) == 0 {
		return r
	}
	c := *r
	c.history = nil
	return &c
}

// TransactionResponse returns the end-to-end worst-case response time
// of transaction i (the response time of its last task).
func (r *Result) TransactionResponse(i int) float64 {
	row := r.Tasks[i]
	return row[len(row)-1].Worst
}

// MeetsDeadline reports whether transaction i is proven to meet its
// deadline: the bounds are final (the fixed point, or the one static
// pass) and its end-to-end response is finite and within its deadline,
// with the convergence tolerance the analysis ran under as the guard
// band. A stopped, cut or unbounded-exit result reports false for
// every transaction, since its bounds may still grow. Schedulable is
// this test over every transaction, so the two never disagree.
func (r *Result) MeetsDeadline(i int) bool {
	rt := r.TransactionResponse(i)
	return r.fixed && !math.IsInf(rt, 1) && rt <= r.System.Transactions[i].Deadline+r.eps
}

// Misses reports whether transaction i is proven to miss its deadline:
// its end-to-end response exceeds its deadline plus the convergence
// tolerance the analysis ran under. Responses never decrease from one
// round to the next, so a bound above the deadline is final whether or
// not the iteration reached its fixed point. A transaction that
// neither MeetsDeadline nor Misses is unproven: the run stopped, was
// cut or exited on an unbounded response before its bound was final.
func (r *Result) Misses(i int) bool {
	return r.TransactionResponse(i) > r.System.Transactions[i].Deadline+r.eps
}

// computeVerdict decides Schedulable from the final round; fixed
// reports that its bounds are final.
func (r *Result) computeVerdict(eps float64, fixed bool) {
	r.eps, r.fixed = eps, fixed
	r.Schedulable = true
	for i := range r.Tasks {
		if !r.MeetsDeadline(i) {
			r.Schedulable = false
			return
		}
	}
}
