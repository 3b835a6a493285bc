package analysis

import (
	"hsched/internal/model"
)

// The incremental re-analysis path.
//
// Admission-control traffic mutates one transaction at a time: add a
// transaction, drop one, retune one task's WCET, move one platform's
// budget, probe one priority level. A cold holistic analysis
// recomputes every task's response in every round regardless; the
// delta path instead replays the previous analysis wherever the edit
// provably cannot have changed anything.
//
// The soundness argument is structural, not numerical. The holistic
// iteration is a deterministic function of its inputs: round r of task
// (i, j) depends only on (a) the parameters of transaction i, (b) the
// parameters and round-(r−1) activation state (offset, jitter) of the
// tasks in its interference sets (same platform, priority ≥), (c) its
// predecessor's round-(r−1) response (which feeds its jitter), and
// (d) the parameters of the platforms transaction i visits. Two kinds
// of taint propagate along those edges:
//
//   - response-dirty: the task's computed response may differ from the
//     baseline, so it must be recomputed. A changed response feeds
//     exactly one place — the chain successor's jitter (Eq. 18) — so
//     it makes the successor activation-dirty, nothing else. In
//     particular it does NOT change the task's own interference
//     contribution, which reads the task's activation state and static
//     parameters, never its response.
//
//   - activation-dirty: the task's offset or jitter trajectory may
//     differ, so every task whose interference set contains it (same
//     platform, priority ≤ its own, Eq. 17) becomes response-dirty —
//     and the task itself must be recomputed too.
//
// Parameter edits seed the closure: a task with changed WCET/BCET/
// platform (or of an added transaction, or on a platform whose
// (α, Δ, β) moved) is activation-dirty — its contribution terms read
// those parameters directly. A task whose only change is its priority
// is merely response-dirty, plus the tasks in the priority band
// between its old and new level (their interference-set membership of
// the moved task flipped): priorities enter the analysis only through
// the ≥ membership test, so tasks outside the band keep bitwise
// identical interference sums. This band rule is what makes
// priority-assignment searches (package sched) cheap: probing one
// task's level re-analyses a handful of tasks, not the platform.
//
// Every task left clean has, by induction over rounds, inputs bitwise
// identical to the previous analysis — so its recorded round-r result
// IS what a cold analysis of the edited system would compute, and
// copying it is exact, not approximate. Dirty tasks are recomputed for
// real; the convergence test, early-stop decisions and iteration count
// therefore follow the cold trajectory bit for bit.
//
// One ordering caveat: interference terms are summed in transaction
// index order, so the replay additionally requires the unchanged
// transactions to keep their relative order (model.SystemDiff.InOrder)
// — a reordered system could differ from the baseline in the last bits
// of a floating-point sum even with identical operands. In-place
// edits, appends, insertions and removals all preserve relative order;
// only genuine permutations fall back to the cold path. Priority-only
// modified transactions take the band fast path only when matched at
// the same position, for the same reason.

// deltaPlan is the precomputed replay schedule of one AnalyzeFrom
// call. Its slices are engine scratch, reused across calls.
type deltaPlan struct {
	// base is the previous analysis's recorded per-round results,
	// shared with (and only ever read from) the seed Result.
	base [][][]TaskResult

	// oldIdx maps a new-system transaction index to its baseline
	// counterpart — an unchanged transaction's match, or a
	// priority-only modified transaction's positional match (−1 for
	// transactions whose tasks are all dirty, which never consult it).
	oldIdx []int

	// clean and dirty partition the task coordinates of the new
	// system, both in flat task order.
	clean [][2]int
	dirty [][2]int

	// cleanTx[i] reports that every task of transaction i is clean —
	// its history rows can then alias the baseline's (history rows are
	// immutable once recorded), making replayed-round snapshots nearly
	// free.
	cleanTx []bool
}

// deltaScratch is the engine's reusable planning state.
type deltaScratch struct {
	plan        deltaPlan
	replayTx    []bool
	changedPlat []bool
	oldMatched  []bool
	respFlags   []bool // response-dirty, indexed by flat task index
	actFlags    []bool // activation-dirty, same indexing
	respQueue   [][2]int
	actQueue    [][2]int
}

// planDelta decides whether an incremental analysis seeded by prev is
// sound for the bound system under the engine's options, and if so
// computes the replay schedule into the engine's scratch. A nil return
// means "run cold"; AnalyzeFrom treats it as a silent fallback. Called
// after bind, so e.flat and e.rowStart describe the new system.
func (e *Engine) planDelta(prev *Result, sys *model.System) *deltaPlan {
	if prev == nil || prev.System == nil || len(prev.history) == 0 {
		return nil
	}
	// The baseline must have been computed under the same analysis
	// semantics: a different epsilon, scenario mode or best-case bound
	// converges along a different trajectory. A stop rule only cuts
	// the stop-free trajectory short, so the baseline's recorded rounds
	// are a prefix of it whatever either rule is (rounds past the
	// recording recompute), and the check masks the rule on both sides.
	if e.opt.ReplayKey().WithoutStop() != prev.rkey.WithoutStop() {
		return nil
	}
	old := prev.System
	d := model.Diff(old, sys)
	if d.PlatformCountChanged || !d.InOrder() {
		return nil
	}

	// Split the modified pairs: a transaction that differs from its
	// same-position baseline counterpart only in task priorities keeps
	// its replay rows and seeds the closure per task (the priority-
	// band fast path); every other modification dirties the whole
	// transaction conservatively.
	ds := &e.delta
	nT := len(sys.Transactions)
	ds.plan.oldIdx = reuseRow(ds.plan.oldIdx, nT)
	ds.replayTx = reuseRow(ds.replayTx, nT)
	ds.oldMatched = reuseRow(ds.oldMatched, len(old.Transactions))
	ds.changedPlat = reuseRow(ds.changedPlat, len(sys.Platforms))
	ds.respFlags = reuseRow(ds.respFlags, len(e.flat))
	ds.actFlags = reuseRow(ds.actFlags, len(e.flat))
	for i := range ds.plan.oldIdx {
		ds.plan.oldIdx[i] = -1
		ds.replayTx[i] = false
	}
	clear(ds.oldMatched)
	clear(ds.changedPlat)
	clear(ds.respFlags)
	clear(ds.actFlags)
	for _, m := range d.ChangedPlatforms {
		ds.changedPlat[m] = true
	}
	replayable := 0
	for _, p := range d.Unchanged {
		ds.plan.oldIdx[p[1]] = p[0]
		ds.replayTx[p[1]] = true
		ds.oldMatched[p[0]] = true
		replayable++
	}
	prioPairs := 0
	for _, p := range d.Modified {
		if p[0] == p[1] && model.PriorityOnlyDiff(&old.Transactions[p[0]], &sys.Transactions[p[1]]) {
			ds.plan.oldIdx[p[1]] = p[0]
			ds.replayTx[p[1]] = true
			ds.oldMatched[p[0]] = true
			replayable++
			prioPairs++
		}
	}
	if replayable == 0 {
		return nil
	}
	// The ordering caveat applies to the COMBINED matching: a clean
	// task's interference sums may draw terms from unchanged and
	// priority-only transactions alike, so the two kinds together must
	// preserve relative order — d.InOrder() alone covers only the
	// unchanged pairs among themselves, and a positional priority pair
	// can interleave out of order with fingerprint-matched unchanged
	// pairs when transactions were also added or removed.
	last := -1
	for i := 0; i < nT; i++ {
		if !ds.replayTx[i] {
			continue
		}
		if ds.plan.oldIdx[i] <= last {
			return nil
		}
		last = ds.plan.oldIdx[i]
	}

	// The two-flag closure. markResp: the task must be recomputed, and
	// its changed response makes the chain successor activation-dirty.
	// markAct: additionally, the task's interference contribution
	// changed, so everything it can interfere with must be recomputed.
	respQueue, actQueue := ds.respQueue[:0], ds.actQueue[:0]
	markResp := func(i, j int) {
		k := e.rowStart[i] + j
		if !ds.respFlags[k] {
			ds.respFlags[k] = true
			respQueue = append(respQueue, [2]int{i, j})
		}
	}
	markAct := func(i, j int) {
		k := e.rowStart[i] + j
		if !ds.actFlags[k] {
			ds.actFlags[k] = true
			actQueue = append(actQueue, [2]int{i, j})
		}
		markResp(i, j)
	}

	// Seed. Parameter-changed tasks (non-replayable transactions,
	// changed platforms) are activation-dirty: their contribution
	// terms read the changed values directly.
	for i := range sys.Transactions {
		tasks := sys.Transactions[i].Tasks
		for j := range tasks {
			if !ds.replayTx[i] || ds.changedPlat[tasks[j].Platform] {
				markAct(i, j)
			}
		}
	}
	// Tasks that used to receive interference from a task the edit
	// removed or modified away — the one edge invisible in the new
	// system alone. Priority-only pairs are handled by the band rule
	// below instead (their oldMatched is set).
	for o := range old.Transactions {
		if ds.oldMatched[o] {
			continue
		}
		for _, t := range old.Transactions[o].Tasks {
			markInterferenceTargets(sys, t.Platform, t.Priority, markResp)
		}
	}
	// The priority-band fast path: a moved priority flips the moved
	// task's membership exactly in the interference sets of the tasks
	// whose own priority lies in (min(old, new), max(old, new)] on the
	// same platform — those and the moved task itself are recomputed,
	// everyone else keeps bitwise identical interference sums.
	if prioPairs > 0 {
		for _, p := range d.Modified {
			if p[0] != p[1] || !ds.replayTx[p[1]] {
				continue
			}
			oldTasks := old.Transactions[p[0]].Tasks
			newTasks := sys.Transactions[p[1]].Tasks
			for j := range newTasks {
				pOld, pNew := oldTasks[j].Priority, newTasks[j].Priority
				if pOld == pNew {
					continue
				}
				markResp(p[1], j)
				lo, hi := pOld, pNew
				if lo > hi {
					lo, hi = hi, lo
				}
				m := newTasks[j].Platform
				for a := range sys.Transactions {
					tasks := sys.Transactions[a].Tasks
					for b := range tasks {
						if tasks[b].Platform == m && lo < tasks[b].Priority && tasks[b].Priority <= hi {
							markResp(a, b)
						}
					}
				}
			}
		}
	}

	// Transitive closure: a recomputed response reaches its chain
	// successor's activation (jitter propagation, Eq. 18); a changed
	// activation reaches every task whose interference set contains
	// the task (same platform, lower-or-equal priority, Eq. 17).
	for len(respQueue) > 0 || len(actQueue) > 0 {
		if n := len(actQueue); n > 0 {
			c := actQueue[n-1]
			actQueue = actQueue[:n-1]
			markInterferenceTargets(sys, sys.Transactions[c[0]].Tasks[c[1]].Platform,
				sys.Transactions[c[0]].Tasks[c[1]].Priority, markResp)
			continue
		}
		n := len(respQueue)
		c := respQueue[n-1]
		respQueue = respQueue[:n-1]
		if c[1]+1 < len(sys.Transactions[c[0]].Tasks) {
			markAct(c[0], c[1]+1)
		}
	}
	ds.respQueue, ds.actQueue = respQueue[:0], actQueue[:0]

	ds.plan.base = prev.history
	ds.plan.clean = ds.plan.clean[:0]
	ds.plan.dirty = ds.plan.dirty[:0]
	ds.plan.cleanTx = reuseRow(ds.plan.cleanTx, nT)
	for i := range ds.plan.cleanTx {
		ds.plan.cleanTx[i] = true
	}
	for k, c := range e.flat {
		if ds.respFlags[k] {
			ds.plan.dirty = append(ds.plan.dirty, c)
			ds.plan.cleanTx[c[0]] = false
		} else {
			ds.plan.clean = append(ds.plan.clean, c)
		}
	}
	if len(ds.plan.clean) == 0 {
		// Nothing to replay: the cold path is strictly cheaper than
		// carrying the plan around.
		return nil
	}
	return &ds.plan
}

// markInterferenceTargets marks every task of sys that a task with the
// given platform and priority can interfere with: same platform,
// priority ≤ the interferer's (Eq. 17 membership seen from the
// receiving side).
func markInterferenceTargets(sys *model.System, platform, priority int, mark func(i, j int)) {
	for a := range sys.Transactions {
		tasks := sys.Transactions[a].Tasks
		for b := range tasks {
			if tasks[b].Platform == platform && priority >= tasks[b].Priority {
				mark(a, b)
			}
		}
	}
}
