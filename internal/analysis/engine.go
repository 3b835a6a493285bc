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
// systems of the same shape (task counts, platform mapping,
// priorities) consecutive calls reuse all caches and run with near
// zero allocations, and after an edit only the slabs the edit touched
// are rebuilt.
//
// Each fixed-point round is executed as an explicit pipeline:
//
//  1. interference construction — the analyzer rebinds the working
//     system, rebuilding only the hp rows an edit invalidated and
//     refreshing the reduced offsets of Eq. (10);
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
// AnalyzeFrom adds the incremental path: seeded with a previous
// Result, rounds replay the recorded per-task results of every
// transaction an edit provably did not reach and recompute only the
// dirty rest — converging to the exact same bits a cold Analyze of
// the edited system would produce.
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
	// arms the round fast path: once set, the slabs hold a previous
	// round and jitChanged describes the step that led to the current
	// one.
	havePrev bool

	// errs collects per-task errors of a parallel round; the first in
	// task index order is reported, keeping errors deterministic too.
	errs []error

	// seq is the scratch of the sequential path; pool feeds the
	// parallel workers.
	seq  taskScratch
	pool sync.Pool

	// rowStart[i] is the flat index of transaction i's first task —
	// the (i, j) → flat mapping of the delta planner.
	rowStart []int

	// snapBlock and snapHdrs are the history arenas: snapshotRound
	// carves round copies (cells and row headers) out of them and
	// refills them when drained. They only ever advance, so carved
	// rows stay exclusively owned by the Results they escaped into.
	snapBlock []TaskResult
	snapHdrs  [][]TaskResult

	// plan is the delta plan of the in-flight AnalyzeFrom call (nil on
	// the cold path); delta is the planner's reusable scratch and
	// deltaSaved counts the per-task response computations the replay
	// skipped.
	plan       *deltaPlan
	delta      deltaScratch
	deltaSaved int

	// pruned accumulates the exact scenarios the admissible prune
	// skipped across the in-flight analysis (atomic: the per-task
	// response computations of a round run in parallel). On the delta
	// path only the recomputed tasks contribute — replayed tasks sweep
	// nothing. subtrees counts the whole-subtree cursor jumps among
	// them (the branch-and-bound decisions), sweepSeeded / sweepDiscarded
	// the sweeps that used, respectively threw away, a recorded
	// incumbent seed, roundCopied the per-task computations the
	// unchanged-inputs round fast path replaced with a copy, and evals
	// the W^k_i evaluations of the computed tasks (each task's phase
	// table counts its own; the total is added once per task).
	pruned         atomic.Int64
	subtrees       atomic.Int64
	evals          atomic.Int64
	sweepSeeded    atomic.Int64
	sweepDiscarded atomic.Int64
	roundCopied    atomic.Int64

	// jitChanged[i] reports whether any task of transaction i changed
	// jitter (bitwise) in the last propagation step.
	jitChanged []bool

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

// Options returns the options the engine was constructed with.
func (e *Engine) Options() Options { return e.opt }

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
// granularity, computes the closure of tasks the edit can reach
// (directly, through shared-platform interference, or through
// chain-successor jitters), and then replays prev's recorded per-round
// results for every clean task while recomputing only the dirty ones.
// Because the replayed values are exactly what a cold analysis of sys
// would compute for those tasks, the returned Result is bit-identical
// to Analyze(sys) in every field — the incremental path is a pure
// optimisation, never an approximation.
//
// When nothing is reusable (different options, reordered transactions,
// different platform counts, no unchanged transactions, or prev
// lacking replay state) the call transparently falls back to a cold
// analysis; Result.Delta is non-nil exactly when the delta path ran.
// prev is only read, so a memoised (shared) Result is a valid seed.
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
	e.ctx = ctx
	defer func() { e.ctx = nil; e.plan = nil; e.delta.plan.base = nil }()
	e.bind(sys)
	e.plan = e.planDelta(prev, e.work)
	e.deltaSaved = 0
	e.resetCounters()
	e.initBounds()
	e.installSweepSeeds(prev)

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

	converged := false
	iters := 0
	for iter := 0; iter < e.opt.maxIter(); iter++ {
		// Cancellation point between holistic rounds.
		if err := ctx.Err(); err != nil {
			return nil, wrapCancelled(err)
		}

		// Stages 2+3: scenario enumeration and per-task responses,
		// replaying clean tasks from the delta baseline when seeded.
		if err := e.runRound(iter); err != nil {
			return nil, err
		}
		iters = iter + 1
		if !e.opt.DisableReplayState && historyCells < maxHistoryCells {
			rows, carved := e.snapshotRound(iter)
			history = append(history, rows)
			// Aliased (fully-clean) rows cost nothing — charge the cap
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
			converged = true
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

		// An intermediate deadline miss is equally final when the
		// caller only needs the verdict: responses are monotone
		// non-decreasing across rounds.
		if e.opt.StopAtDeadlineMiss {
			missed := false
			for i := range e.an.slabs {
				row := e.an.slabs[i].round
				if row[len(row)-1].Worst > e.work.Transactions[i].Deadline+e.opt.eps() {
					missed = true
					break
				}
			}
			if missed {
				converged = true
				break
			}
		}

		// Stage 4: jitter propagation, Eq. 18:
		// J(i,j) = R(i,j−1) − Rbest(i,j−1). The worst-case response
		// already includes the effect of the release jitter of the
		// first task, so nothing is added on top. Per transaction, the
		// step records whether any jitter moved bitwise: a task whose
		// own and interfering transactions all kept their jitters is
		// recomputed from bit-identical inputs next round, so
		// analyzeTask reuses the previous round's TaskResult outright.
		for i := range e.work.Transactions {
			tasks := e.work.Transactions[i].Tasks
			sl := &e.an.slabs[i]
			changed := false
			for j := 1; j < len(tasks); j++ {
				jit := sl.round[j-1].Worst - sl.initStarts[j]
				if jit < 0 {
					jit = 0
				}
				if jit != tasks[j].Jitter {
					changed = true
				}
				tasks[j].Jitter = jit
			}
			e.jitChanged[i] = changed
		}
	}
	if iters == 0 {
		return nil, fmt.Errorf("analysis: no iterations executed")
	}
	res := e.finalize(iters, converged)
	if !converged {
		// The iteration was cut off by MaxIterations: the reported
		// response times are lower bounds of the (larger) fixed point,
		// so a positive verdict would be unsound.
		res.Schedulable = false
	}
	res.history = history
	res.rkey = e.opt.ReplayKey()
	res.sweepNu = e.harvestSweepSeeds()
	if e.plan != nil {
		res.Delta = &DeltaInfo{
			CleanTasks:      len(e.plan.clean),
			DirtyTasks:      len(e.plan.dirty),
			ReplayedRounds:  min(iters, len(e.plan.base)),
			TaskRoundsSaved: e.deltaSaved,
		}
	}
	return res, nil
}

// resetCounters zeroes the per-analysis work-profile counters.
func (e *Engine) resetCounters() {
	e.pruned.Store(0)
	e.subtrees.Store(0)
	e.evals.Store(0)
	e.sweepSeeded.Store(0)
	e.sweepDiscarded.Store(0)
	e.roundCopied.Store(0)
}

// installSweepSeeds copies the cross-probe sweep summary of a seed
// Result into the engine's slabs, where the exact sweeps of this
// analysis pick the vectors up as incumbent seeds. Installation is
// positional (transaction and task counts must line up — the same
// correspondence the delta planner replays under) and per-seed
// validation happens at sweep time: a vector whose axes no longer
// match the task's interference shape is discarded there, so a seed
// that is stale — or from a one-edit-apart system — costs one shape
// check, never a wrong bound. prev is only read; the slabs get copies.
func (e *Engine) installSweepSeeds(prev *Result) {
	if prev == nil || !e.opt.Exact {
		return
	}
	if len(prev.sweepNu) != len(e.an.slabs) {
		return
	}
	for i, row := range prev.sweepNu {
		sl := &e.an.slabs[i]
		if len(row) != len(sl.seedNu) {
			continue
		}
		for b, nu := range row {
			if len(nu) > 0 {
				sl.seedNu[b] = append(sl.seedNu[b][:0], nu...)
			}
		}
	}
}

// harvestSweepSeeds deep-copies the slabs' recorded critical scenario
// vectors into a Result-owned summary — the prune state a later
// AnalyzeFrom re-seeds from. nil when the result cannot serve as a
// seed anyway (approximate analysis, replay state disabled).
func (e *Engine) harvestSweepSeeds() [][][]initiator {
	if !e.opt.Exact || e.opt.DisableReplayState {
		return nil
	}
	total := 0
	for i := range e.an.slabs {
		for _, nu := range e.an.slabs[i].seedNu {
			total += len(nu)
		}
	}
	if total == 0 {
		return nil
	}
	block := make([]initiator, 0, total)
	sweep := make([][][]initiator, len(e.an.slabs))
	for i := range e.an.slabs {
		seeds := e.an.slabs[i].seedNu
		row := make([][]initiator, len(seeds))
		for b, nu := range seeds {
			if len(nu) == 0 {
				continue
			}
			start := len(block)
			block = append(block, nu...)
			row[b] = block[start:len(block):len(block)]
		}
		sweep[i] = row
	}
	return sweep
}

// maxHistoryCells bounds the replay state retained on a Result:
// rounds × tasks cells of TaskResult. Past the bound later rounds are
// simply not recorded (a partial history replays its prefix and
// recomputes the rest), so one huge analysis cannot pin megabytes in
// the service's verdict memo.
const maxHistoryCells = 1 << 14

// snapshotRound deep-copies the current round matrix. History rows are
// immutable once recorded, which buys two things: a replayed round can
// alias the baseline's row outright for a fully-clean transaction (no
// copy at all — mutation chains then share their common history), and
// fresh rows can be carved out of snapBlock, an arena the engine
// refills a few rounds' worth at a time and only ever advances
// through, so carved rows safely escape into Results.
func (e *Engine) snapshotRound(iter int) (rows [][]TaskResult, carved int) {
	nTx := len(e.an.slabs)
	if len(e.snapHdrs) < nTx {
		e.snapHdrs = make([][]TaskResult, 8*nTx)
	}
	rows = e.snapHdrs[:nTx:nTx]
	e.snapHdrs = e.snapHdrs[nTx:]
	var base [][]TaskResult
	if e.plan != nil && iter < len(e.plan.base) {
		base = e.plan.base[iter]
	}
	for i := range e.an.slabs {
		if base == nil || !e.plan.cleanTx[i] {
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
		if base != nil && e.plan.cleanTx[i] {
			rows[i] = base[e.plan.oldIdx[i]]
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
	return e.finalize(1, true), nil
}

// bind copies sys into the engine's working system, rebinds the
// analyzer (which resizes the slabs and selectively rebuilds hp rows)
// and refreshes the flat work list.
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
	e.jitChanged = reuseRow(e.jitChanged, len(e.work.Transactions))
	for i := range e.jitChanged {
		e.jitChanged[i] = false
	}
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
// every task to compute, in parallel across Options.Workers
// goroutines, enumerate its scenarios and compute its worst-case
// response with the offsets and jitters currently stored in the
// working system, writing the TaskResults into the slabs in task index
// order. On a seeded (delta) round still covered by the baseline's
// recorded history, clean tasks are replayed — copied from the
// baseline — and only the dirty work list is computed; the copied
// values are bitwise what the computation would have produced.
func (e *Engine) runRound(iter int) error {
	work := e.flat
	if e.plan != nil && iter < len(e.plan.base) {
		base := e.plan.base[iter]
		for _, c := range e.plan.clean {
			i, j := c[0], c[1]
			e.an.slabs[i].round[j] = base[e.plan.oldIdx[i]][j]
		}
		e.deltaSaved += len(e.plan.clean)
		work = e.plan.dirty
	}

	n := len(work)
	workers := e.opt.workers()
	if workers <= 1 || n < minParallelTasks {
		for k := 0; k < n; k++ {
			if err := e.ctx.Err(); err != nil {
				return wrapCancelled(err)
			}
			if err := e.analyzeTask(work[k][0], work[k][1], &e.seq); err != nil {
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
	// write disjoint round cells of the slabs, so a successful round
	// is deterministic regardless of scheduling. Errors are staged per
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
		err := e.analyzeTask(work[k][0], work[k][1], ts)
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

// analyzeTask computes the response of task (i, j) of the working
// system and stores its TaskResult in the transaction's slab. When the
// last propagation step left every input of the task bitwise unchanged
// — the jitters of its own transaction and of every transaction with a
// non-empty interference row; offsets, best-case bounds and parameters
// are fixed for the whole analysis — recomputation is a pure function
// of inputs identical to the previous round's, so the previous round's
// TaskResult is copied instead (bit-identical by determinism). The
// fast path is what makes the convergence-confirming final rounds of
// an exact analysis near-free.
func (e *Engine) analyzeTask(i, j int, ts *taskScratch) error {
	if e.havePrev && e.roundInputsUnchanged(i, j) {
		e.an.slabs[i].round[j] = e.an.slabs[i].lastRound[j]
		e.roundCopied.Add(1)
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
	if st.seeded {
		e.sweepSeeded.Add(1)
	}
	if st.discarded {
		e.sweepDiscarded.Add(1)
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
// pooled parallel scratch is already reclaimed by the GC).
func (e *Engine) finalize(iterations int, converged bool) *Result {
	e.seq.shrink()
	res := e.detach(iterations)
	res.Converged = converged
	res.ScenariosPruned = e.pruned.Load()
	res.SubtreesPruned = e.subtrees.Load()
	res.InterferenceEvals = e.evals.Load()
	res.computeVerdict(e.opt.eps())
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
			a, b := sl.prev[j], sl.round[j].Worst
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

// storePrev stores the round's worst-case responses into the
// convergence buffers, and the full TaskResults into the round
// fast path's copy source.
func (e *Engine) storePrev() {
	for i := range e.an.slabs {
		sl := &e.an.slabs[i]
		copy(sl.lastRound, sl.round)
		for j := range sl.round {
			sl.prev[j] = sl.round[j].Worst
		}
	}
}

// roundInputsUnchanged reports whether every transaction whose jitters
// feed the response computation of task (i, j) — its own, plus every
// transaction with interfering tasks (Eq. 17) — kept bitwise-identical
// jitters through the last propagation step.
func (e *Engine) roundInputsUnchanged(i, j int) bool {
	if e.jitChanged[i] {
		return false
	}
	for idx, hpI := range e.an.hpRow(i, j) {
		if len(hpI) > 0 && e.jitChanged[idx] {
			return false
		}
	}
	return true
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
