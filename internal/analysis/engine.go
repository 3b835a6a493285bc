package analysis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hsched/internal/batch"
	"hsched/internal/model"
)

// Engine is a reusable analysis engine: it owns every piece of scratch
// state an analysis needs (the working copy of the system, the
// transaction-keyed slabs holding interference rows, reduced offsets,
// best-case bounds and round results, pooled per-task scenario
// buffers) and amortises them across calls. Construct one with
// NewEngine and call Analyze / AnalyzeStatic any number of times; on
// systems of the same dimensions consecutive calls reuse every buffer
// and run with near zero allocations. The engine carries buffers from
// one analysis to the next, never values: an analysis's outcome and
// work counts are the same on a fresh engine.
//
// Each fixed-point round is executed as an explicit pipeline:
//
//  1. interference construction — the analyzer rebinds the working
//     system, rebuilding its hp rows in place and refreshing the
//     reduced offsets of Eq. (10);
//  2. scenario enumeration — per task, the approximate analysis
//     (Sec. 3.1.2) loops over its Na+1 candidate initiators, while the
//     exact scenario space (Sec. 3.1.1) is streamed one vector at a
//     time from a mixed-radix cursor, pruned by the admissible
//     per-initiator bound of Eq. 15 (Result.ScenariosPruned counts
//     the skips) — one sequential sweep per task;
//  3. per-task response — the response times of all tasks in the
//     round are independent and are computed on Options.Workers
//     goroutines via batch.Map, with results collected in task index
//     order so the outcome is bit-identical for every worker count;
//  4. jitter propagation — Eq. (18) rewrites the jitters from the
//     previous round's responses and the loop repeats to the fixed
//     point.
//
// Stage 3 skips work by one copy rule: a task whose inputs (the
// offsets, jitters and best case it reads) equal, bit for bit, those of
// a recorded round takes that round's TaskResult instead of being
// recomputed. The reference is the previous round of the same
// analysis, and, for AnalyzeFrom, the same round of a seed Result's
// history — converging to the exact same bits a cold Analyze of the
// edited system would produce (see delta.go).
//
// An Engine is internally concurrent but not safe for concurrent use:
// run one Engine per goroutine. Returned Results are fully detached
// from the engine's scratch and stay valid across subsequent calls.
type Engine struct {
	opt Options
	an  analyzer

	// work is the engine-owned working copy of the system under
	// analysis; bind copies the caller's system into it value by value
	// so the caller's system is never mutated and no per-call clone is
	// allocated once the shapes match.
	work *model.System

	// flat enumerates the task coordinates (i, j) in deterministic
	// index order; it is the work list of the parallel response stage.
	flat [][2]int

	// havePrev guards the convergence test on the first round, and
	// arms the round fast path: once set, lastRound holds the previous
	// round.
	havePrev bool

	// lastRound is the previous round's TaskResults, indexed like the
	// slabs' round rows: the convergence test's and the round fast
	// path's reference (see Engine.analyzeTask).
	lastRound [][]TaskResult

	// errs collects per-task errors of a parallel round; the first in
	// task index order is reported, keeping errors deterministic too.
	errs []error

	// seq is the scratch of the sequential path; pool feeds the
	// parallel workers.
	seq  taskScratch
	pool sync.Pool

	// rowStart[i] is the flat index of transaction i's first task —
	// the (i, j) → flat mapping of the delta plan's per-task slices.
	rowStart []int

	// snapBlock and snapHdrs are the history arenas: snapshotRound
	// carves round copies (cells and row headers) out of them and
	// refills them when drained. They only ever advance, so carved
	// rows stay exclusively owned by the Results they escaped into.
	snapBlock []TaskResult
	snapHdrs  [][]TaskResult

	// plan is the delta plan of the in-flight AnalyzeFrom call: nil on
	// the cold path, else delta, whose buffers persist across calls.
	plan  *deltaPlan
	delta deltaPlan

	// pruned accumulates the exact scenarios the admissible prune
	// skipped across the in-flight analysis (atomic: the per-task
	// response computations of a round run in parallel). Only the
	// computed tasks contribute — copied tasks sweep nothing. subtrees
	// counts the whole-subtree cursor jumps among them (the
	// branch-and-bound decisions), seedCopied the per-task computations
	// a copy from the seed replaced, and evals the W^k_i evaluations of
	// the computed tasks (each task's phase table counts its own; the
	// total is added once per task).
	pruned     atomic.Int64
	subtrees   atomic.Int64
	evals      atomic.Int64
	seedCopied atomic.Int64

	// ctx is the context of the in-flight call, set by the Context
	// entry points before any round runs and read (never written) by
	// the per-task response computations, which poll it between tasks
	// and every few hundred scenarios. The goroutine fan-out of
	// batch.Map establishes the happens-before edge the workers need.
	ctx context.Context
}

// NewEngine returns an Engine with the given options. The zero-value
// Options select the approximate analysis with GOMAXPROCS response
// workers; set Options.Workers = 1 for a strictly sequential engine
// (e.g. one engine per batch worker).
func NewEngine(opt Options) *Engine {
	e := &Engine{opt: opt}
	e.pool.New = func() any { return new(taskScratch) }
	return e
}

// Analyze runs the dynamic-offset holistic analysis of Section 3.2 on
// sys, exactly as the package-level Analyze, but reusing the engine's
// caches and buffers. sys is not mutated.
func (e *Engine) Analyze(sys *model.System) (*Result, error) {
	return e.AnalyzeContext(context.Background(), sys)
}

// AnalyzeContext is Analyze with cancellation: the engine polls ctx
// between holistic rounds, between the per-task response computations
// of a round (the parallel stage's error plumbing cancels the
// remaining tasks of the round), and periodically inside large exact
// scenario sweeps, so even a long exact analysis aborts promptly. On
// cancellation it returns an error wrapping ctx.Err(); the engine
// stays valid for further calls.
func (e *Engine) AnalyzeContext(ctx context.Context, sys *model.System) (*Result, error) {
	return e.analyzeDynamic(ctx, nil, sys)
}

// AnalyzeFrom is the incremental re-analysis entry point: it runs the
// holistic analysis of sys exactly like Analyze, but seeded with prev
// — the Result of an earlier analysis of a structurally similar
// system. The engine diffs prev.System against sys at transaction
// granularity and finds the tasks that read the same parameters as
// their counterpart in prev.System: same platform parameters, and an
// interference set that maps one to one onto the counterpart's. In
// every round, such a task whose offsets, jitters and best case equal
// bit for bit what prev recorded for the same round is copied from
// prev's history; every other task is computed (or copied from the
// previous round by the same rule). Because a copied value is exactly
// what a cold analysis of sys would compute for that task, the
// returned Result's bounds, critical scenarios, iteration count and
// verdict are bit-identical to Analyze(sys) — the incremental path is
// a pure optimisation, never an approximation.
//
// When nothing is reusable (different options, reordered transactions,
// different platform counts, no task with matching parameters, or
// prev lacking replay state) the call transparently falls back to a
// cold analysis; Result.Delta is non-nil exactly when the delta path
// ran. prev is only read, so a memoised (shared) Result is a valid
// seed.
func (e *Engine) AnalyzeFrom(prev *Result, sys *model.System) (*Result, error) {
	return e.AnalyzeFromContext(context.Background(), prev, sys)
}

// AnalyzeFromContext is AnalyzeFrom with cancellation, with the same
// polling points as AnalyzeContext.
func (e *Engine) AnalyzeFromContext(ctx context.Context, prev *Result, sys *model.System) (*Result, error) {
	return e.analyzeDynamic(ctx, prev, sys)
}

// analyzeDynamic is the shared holistic loop of AnalyzeContext (prev
// == nil) and AnalyzeFromContext.
func (e *Engine) analyzeDynamic(ctx context.Context, prev *Result, sys *model.System) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if g := e.opt.Goal; g < 0 || g > len(sys.Transactions) {
		return nil, fmt.Errorf("analysis: goal transaction %d of %d", g, len(sys.Transactions))
	}
	e.ctx = ctx
	defer func() { e.ctx = nil; e.plan = nil; e.delta.base = nil }()
	e.bind(sys)
	e.plan = e.planDelta(prev, e.work)
	e.resetCounters()
	e.initBounds()

	// Initial conditions of Section 3.2: J = 0, φ = Rbest (Eq. 18). The
	// best starts already include the first task's external release
	// offset; the offsets and jitters of the first task of each
	// transaction are external inputs and are preserved.
	for i := range e.work.Transactions {
		tasks := e.work.Transactions[i].Tasks
		starts := e.an.slabs[i].initStarts
		for j := 1; j < len(tasks); j++ {
			tasks[j].Offset = starts[j]
			tasks[j].Jitter = 0
		}
	}

	// history records every round's detached per-task results — the
	// replay state a later AnalyzeFrom consumes. Rows must be freshly
	// allocated (they escape into the Result). Callers that never
	// re-analyse mutations opt out via Options.DisableReplayState.
	var history [][][]TaskResult
	historyCells := 0
	if !e.opt.DisableReplayState {
		history = make([][][]TaskResult, 0, 8)
	}

	// Stage 1: interference construction. The offsets are fixed for the
	// whole analysis (the loop below only rewrites jitters), so the
	// reduced offsets of Eq. (10) are derived once, not per round.
	e.an.refreshOffsets()

	// fixed: the round reached the fixed point; converged: the verdict
	// is final (a fixed point, a stop, or an unbounded response).
	converged, fixed, stopped := false, false, false
	iters := 0
	for iter := 0; iter < e.opt.maxIter(); iter++ {
		// Cancellation point between holistic rounds.
		if err := ctx.Err(); err != nil {
			return nil, wrapCancelled(err)
		}

		// Stages 2+3: scenario enumeration and per-task responses,
		// copying the tasks whose inputs match a recorded round.
		if err := e.runRound(iter); err != nil {
			return nil, err
		}
		iters = iter + 1
		if !e.opt.DisableReplayState && historyCells < maxHistoryCells {
			rows, carved := e.snapshotRound(iter)
			history = append(history, rows)
			// Rows aliased to the seed's cost nothing — charge the cap
			// only for cells actually carved, so long delta chains keep
			// their full replay depth.
			historyCells += carved
		}
		if e.opt.Recorder != nil {
			// Snapshots must be detached from engine scratch: callers
			// retain them past the call (Table 3 reproduction), and the
			// working system is rewritten by the engine's next analysis.
			e.opt.Recorder(iter, e.detach(iters))
		}

		if e.havePrev && e.roundUnchanged() {
			converged, fixed = true, true
			break
		}
		e.storePrev()
		e.havePrev = true

		// Any unbounded response time is final: larger jitters can only
		// increase response times and +Inf is already absorbing.
		if e.roundHasInf() {
			converged = true
			break
		}

		// A goal's deadline miss is equally final (Options.Goal; with
		// StopAtDeadlineMiss every transaction is a goal): responses are
		// monotone non-decreasing across rounds.
		if s := e.opt.stop(); s != 0 && e.goalMisses(s) {
			converged, stopped = true, true
			break
		}

		// Stage 4: jitter propagation, Eq. 18:
		// J(i,j) = R(i,j−1) − Rbest(i,j−1). The worst-case response
		// already includes the effect of the release jitter of the
		// first task, so nothing is added on top.
		for i := range e.work.Transactions {
			tasks := e.work.Transactions[i].Tasks
			sl := &e.an.slabs[i]
			for j := 1; j < len(tasks); j++ {
				jit := sl.round[j-1].Worst - sl.initStarts[j]
				if jit < 0 {
					jit = 0
				}
				tasks[j].Jitter = jit
			}
		}
	}
	if iters == 0 {
		return nil, fmt.Errorf("analysis: no iterations executed")
	}
	res := e.finalize(iters, converged, fixed)
	res.StoppedAtGoal = stopped
	res.history = history
	res.rkey = e.opt.ReplayKey()
	if e.plan != nil {
		res.Delta = &DeltaInfo{
			CleanTasks:      e.plan.clean,
			DirtyTasks:      len(e.flat) - e.plan.clean,
			ReplayedRounds:  min(iters, len(e.plan.base)),
			TaskRoundsSaved: int(e.seedCopied.Load()),
		}
	}
	return res, nil
}

// resetCounters zeroes the per-analysis work-profile counters.
func (e *Engine) resetCounters() {
	e.pruned.Store(0)
	e.subtrees.Store(0)
	e.evals.Store(0)
	e.seedCopied.Store(0)
}

// maxHistoryCells bounds the replay state retained on a Result:
// rounds × tasks cells of TaskResult. Past the bound later rounds are
// simply not recorded (a partial history replays its prefix and
// recomputes the rest), so one huge analysis cannot pin megabytes in
// the service's verdict memo.
const maxHistoryCells = 1 << 14

// snapshotRound deep-copies the current round matrix. History rows are
// immutable once recorded, which buys two things: a transaction whose
// every task was copied from the seed in this round aliases the seed's
// row outright (no copy at all — mutation chains then share their
// common history), and fresh rows can be carved out of snapBlock, an
// arena the engine refills a few rounds' worth at a time and only ever
// advances through, so carved rows safely escape into Results.
func (e *Engine) snapshotRound(iter int) (rows [][]TaskResult, carved int) {
	nTx := len(e.an.slabs)
	if len(e.snapHdrs) < nTx {
		e.snapHdrs = make([][]TaskResult, 8*nTx)
	}
	rows = e.snapHdrs[:nTx:nTx]
	e.snapHdrs = e.snapHdrs[nTx:]
	for i := range e.an.slabs {
		rows[i] = e.seedRow(iter, i)
		if rows[i] == nil {
			carved += len(e.an.slabs[i].round)
		}
	}
	if len(e.snapBlock) < carved {
		e.snapBlock = make([]TaskResult, max(8*carved, 4*len(e.flat)))
	}
	block := e.snapBlock[:carved]
	e.snapBlock = e.snapBlock[carved:]
	k := 0
	for i := range e.an.slabs {
		if rows[i] != nil {
			continue
		}
		round := e.an.slabs[i].round
		row := block[k : k+len(round) : k+len(round)]
		copy(row, round)
		rows[i] = row
		k += len(round)
	}
	return rows, carved
}

// seedRow returns the seed's row of transaction i in round iter when
// every task of the transaction was copied from it in that round, and
// nil otherwise.
func (e *Engine) seedRow(iter, i int) []TaskResult {
	p := e.plan
	if p == nil || iter >= len(p.base) {
		return nil
	}
	k := e.rowStart[i]
	for _, copied := range p.fromSeed[k : k+len(e.an.slabs[i].round)] {
		if !copied {
			return nil
		}
	}
	return p.base[iter][p.oldIdx[i]]
}

// AnalyzeStatic runs one pass of the static-offset analysis of Section
// 3.1 on sys, exactly as the package-level AnalyzeStatic, but reusing
// the engine's caches and buffers. sys is not mutated.
func (e *Engine) AnalyzeStatic(sys *model.System) (*Result, error) {
	return e.AnalyzeStaticContext(context.Background(), sys)
}

// AnalyzeStaticContext is AnalyzeStatic with cancellation, with the
// same polling points as AnalyzeContext (a static pass is one round).
func (e *Engine) AnalyzeStaticContext(ctx context.Context, sys *model.System) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	e.ctx = ctx
	defer func() { e.ctx = nil }()
	e.bind(sys)
	e.resetCounters()
	e.initBounds()
	// Stage 1 runs once: static analysis keeps the input offsets.
	e.an.refreshOffsets()
	if err := e.runRound(0); err != nil {
		return nil, err
	}
	return e.finalize(1, true, true), nil
}

// bind copies sys into the engine's working system, rebinds the
// analyzer (which resizes the slabs and rebuilds the hp rows) and
// refreshes the flat work list.
func (e *Engine) bind(sys *model.System) {
	e.copySystem(sys)
	e.an.bind(e.work, e.opt)
	e.flat = e.flat[:0]
	e.rowStart = e.rowStart[:0]
	for i := range e.work.Transactions {
		e.rowStart = append(e.rowStart, len(e.flat))
		for j := range e.work.Transactions[i].Tasks {
			e.flat = append(e.flat, [2]int{i, j})
		}
	}
	if cap(e.errs) < len(e.flat) {
		e.errs = make([]error, len(e.flat))
	}
	e.lastRound = reuseMatrix(e.lastRound, e.work)
	e.havePrev = false
}

// initBounds computes the per-transaction best-case bounds of Eq. (18)
// into the slabs; they depend only on BCETs, platforms and the
// external release offset, none of which the iteration rewrites.
func (e *Engine) initBounds() {
	for i := range e.work.Transactions {
		sl := &e.an.slabs[i]
		bestBoundsTx(e.work, i, e.opt.TightBestCase, sl.initStarts, sl.initCompl)
	}
}

// copySystem copies src value by value into the engine-owned working
// system, reusing every slice whose capacity suffices.
func (e *Engine) copySystem(src *model.System) {
	if e.work == nil {
		e.work = src.Clone()
		return
	}
	w := e.work
	w.Platforms = append(w.Platforms[:0], src.Platforms...)
	if cap(w.Transactions) < len(src.Transactions) {
		w.Transactions = make([]model.Transaction, len(src.Transactions))
	} else {
		w.Transactions = w.Transactions[:len(src.Transactions)]
	}
	for i := range src.Transactions {
		st := &src.Transactions[i]
		wt := &w.Transactions[i]
		tasks := wt.Tasks
		*wt = *st
		wt.Tasks = append(tasks[:0], st.Tasks...)
	}
}

// minParallelTasks is the round size below which fanning out is a
// loss: one task's response computation is microseconds of work, so
// spawning a worker set per round only pays off once a round carries
// enough tasks to amortise it. Small systems — the paper example, the
// tight search loops of priority assignment and design search — run
// sequentially whatever Options.Workers says; results are identical
// either way.
const minParallelTasks = 16

// runRound executes stages 2 and 3 of the pipeline for round iter: for
// every task, in parallel across Options.Workers goroutines, copy or
// compute its worst-case response with the offsets and jitters
// currently stored in the working system (see analyzeTask), writing
// the TaskResults into the slabs in task index order.
func (e *Engine) runRound(iter int) error {
	work := e.flat
	n := len(work)
	workers := e.opt.workers()
	if workers <= 1 || n < minParallelTasks {
		for k := 0; k < n; k++ {
			if err := e.ctx.Err(); err != nil {
				return wrapCancelled(err)
			}
			if err := e.analyzeTask(iter, work[k][0], work[k][1], &e.seq); err != nil {
				return err
			}
		}
		return nil
	}

	errs := e.errs[:n]
	for k := range errs {
		errs[k] = nil
	}
	// The per-task computations only read the analyzer's state and
	// write disjoint round cells of the slabs and disjoint fromSeed
	// slots of the delta plan, so a successful round is deterministic
	// regardless of scheduling. Errors are staged per
	// task and the first in index order among those staged wins; the
	// sentinel returned to batch.Map cancels the remaining tasks, so
	// a failing round (only the exact analysis can fail, on scenario
	// overflow) does not burn CPU finishing work it will discard. The
	// cancellation means which failing task the error names can vary
	// with scheduling when several would fail — the error identity
	// (ErrTooManyScenarios) is stable, the task name is not.
	_, _ = batch.Map(n, batch.Options{Workers: workers}, func(k int) (struct{}, error) {
		// Cancellation point between parallel per-task responses: the
		// sentinel makes batch.Map stop handing out the round's
		// remaining tasks.
		if err := e.ctx.Err(); err != nil {
			errs[k] = wrapCancelled(err)
			return struct{}{}, errRoundFailed
		}
		// The nil-tolerant assertion keeps a zero-value Engine working
		// (its pool has no New hook).
		ts, _ := e.pool.Get().(*taskScratch)
		if ts == nil {
			ts = new(taskScratch)
		}
		err := e.analyzeTask(iter, work[k][0], work[k][1], ts)
		e.pool.Put(ts)
		if err != nil {
			errs[k] = err
			return struct{}{}, errRoundFailed
		}
		return struct{}{}, nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// errRoundFailed is the sentinel a parallel round hands batch.Map to
// cancel outstanding tasks; the caller reports the staged per-task
// error instead.
var errRoundFailed = errors.New("analysis: round failed")

// wrapCancelled wraps a context error so errors.Is(err,
// context.Canceled / DeadlineExceeded) keeps working while the message
// names the analysis as the aborted operation.
func wrapCancelled(err error) error {
	return fmt.Errorf("analysis: cancelled: %w", err)
}

// analyzeTask stores the TaskResult of task (i, j) of the working
// system for round iter in the transaction's slab. By the copy rule
// (see delta.go) it is copied from the seed's round iter when the task
// is seedable and its inputs match that round, else from the previous
// round when its inputs match that one, and computed otherwise.
func (e *Engine) analyzeTask(iter, i, j int, ts *taskScratch) error {
	if p := e.plan; p != nil {
		k := e.rowStart[i] + j
		p.fromSeed[k] = iter < len(p.base) && p.seedable[k] && e.inputsMatch(i, j, p.base[iter], p.oldIdx)
		if p.fromSeed[k] {
			e.an.slabs[i].round[j] = p.base[iter][p.oldIdx[i]][j]
			e.seedCopied.Add(1)
			return nil
		}
	}
	if e.havePrev && e.inputsMatch(i, j, e.lastRound, nil) {
		e.an.slabs[i].round[j] = e.lastRound[i][j]
		return nil
	}
	r, crit, st, err := e.an.responseTime(e.ctx, i, j, ts)
	if st.pruned != 0 {
		e.pruned.Add(st.pruned)
	}
	if st.subtrees != 0 {
		e.subtrees.Add(st.subtrees)
	}
	if st.evals != 0 {
		e.evals.Add(st.evals)
	}
	if err != nil {
		// Cancellation is not a property of the task being analysed:
		// pass it through unwrapped so the message carries a single
		// "analysis: cancelled" prefix, like the other polling points.
		if ctxErr := e.ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			return err
		}
		return fmt.Errorf("analysis: %s: %w", e.work.TaskName(i, j), err)
	}
	t := &e.work.Transactions[i].Tasks[j]
	e.an.slabs[i].round[j] = TaskResult{
		Offset:            t.Offset,
		Jitter:            t.Jitter,
		Best:              e.an.slabs[i].initCompl[j],
		Worst:             r,
		CriticalInitiator: crit.initiator,
		CriticalJob:       crit.job,
	}
	return nil
}

// detach copies the current round state into a self-contained Result:
// the returned System and TaskResults are deep copies, valid after the
// engine moves on to its next analysis. Convergence and verdict are
// left at their zero values (a mid-iteration snapshot has neither).
func (e *Engine) detach(iterations int) *Result {
	res := &Result{
		System:     cloneCompact(e.work, len(e.flat)),
		Tasks:      make([][]TaskResult, len(e.an.slabs)),
		Iterations: iterations,
	}
	block := make([]TaskResult, len(e.flat))
	k := 0
	for i := range e.an.slabs {
		round := e.an.slabs[i].round
		row := block[k : k+len(round) : k+len(round)]
		copy(row, round)
		res.Tasks[i] = row
		k += len(round)
	}
	return res
}

// cloneCompact deep-copies a system like model.System.Clone, but
// carves every transaction's task slice out of one shared block
// (capacity-capped, so a later append relocates instead of clobbering
// a neighbour) — detach runs on every analysis, and the per-transaction
// allocations of the general Clone are measurable on the delta path.
func cloneCompact(src *model.System, totalTasks int) *model.System {
	c := &model.System{
		Transactions: make([]model.Transaction, len(src.Transactions)),
		Platforms:    append(src.Platforms[:0:0], src.Platforms...),
	}
	block := make([]model.Task, 0, totalTasks)
	for i := range src.Transactions {
		st := &src.Transactions[i]
		start := len(block)
		block = append(block, st.Tasks...)
		c.Transactions[i] = *st
		c.Transactions[i].Tasks = block[start:len(block):len(block)]
	}
	return c
}

// finalize builds the analysis outcome from the last round. Oversized
// sequential scratch is released here so one outlier exact analysis
// does not pin its peak memory across the engine's lifetime (the
// pooled parallel scratch is already reclaimed by the GC). fixed
// reports that the last round's bounds are final (see MeetsDeadline).
func (e *Engine) finalize(iterations int, converged, fixed bool) *Result {
	e.seq.shrink()
	res := e.detach(iterations)
	res.Converged = converged
	res.ScenariosPruned = e.pruned.Load()
	res.SubtreesPruned = e.subtrees.Load()
	res.InterferenceEvals = e.evals.Load()
	res.computeVerdict(e.opt.eps(), fixed)
	return res
}

// roundUnchanged reports whether the current round's worst-case
// responses match the previous round's within eps — the fixed-point
// test of the holistic iteration.
func (e *Engine) roundUnchanged() bool {
	eps := e.opt.eps()
	for i := range e.an.slabs {
		sl := &e.an.slabs[i]
		for j := range sl.round {
			a, b := e.lastRound[i][j].Worst, sl.round[j].Worst
			if math.IsInf(a, 1) && math.IsInf(b, 1) {
				continue
			}
			if math.Abs(a-b) > eps {
				return false
			}
		}
	}
	return true
}

// storePrev stores the round's TaskResults as the previous round: the
// convergence test's and the round fast path's reference.
func (e *Engine) storePrev() {
	for i := range e.an.slabs {
		copy(e.lastRound[i], e.an.slabs[i].round)
	}
}

// goalMisses reports whether a goal transaction of stop rule s (see
// Options.stop) misses in the current round: its end-to-end response
// exceeds its deadline plus ε.
func (e *Engine) goalMisses(s int) bool {
	for i := range e.an.slabs {
		row := e.an.slabs[i].round
		if (s == stopAll || s == i+1) && row[len(row)-1].Worst > e.work.Transactions[i].Deadline+e.opt.eps() {
			return true
		}
	}
	return false
}

// roundHasInf reports an unbounded response in the current round.
func (e *Engine) roundHasInf() bool {
	for i := range e.an.slabs {
		for j := range e.an.slabs[i].round {
			if math.IsInf(e.an.slabs[i].round[j].Worst, 1) {
				return true
			}
		}
	}
	return false
}
