package analysis

import (
	"math"

	"hsched/internal/model"
)

// The copy rule, shared by the incremental re-analysis path and the
// round fast path.
//
// The holistic iteration is a deterministic function of its inputs:
// the response of task (a, b) in a round depends only on its own
// parameters, offset, jitter and best case, on the offsets, jitters
// and parameters of the tasks in its interference set (same platform,
// priority ≥, Eq. 17), and on the parameters of its platform. So a
// recorded TaskResult whose round read the same parameters IS what the
// computation would return when every offset, jitter and best case the
// task reads equals, bit for bit, what that round recorded
// (inputsMatch), and copying it is exact, not approximate. Two rounds
// serve as references:
//
//   - the previous round of the same analysis (the round fast path,
//     which makes the convergence-confirming final rounds of an exact
//     analysis near-free);
//   - the same round of a seed Result's history (Engine.AnalyzeFrom:
//     admission-control traffic mutates one transaction at a time, and
//     most tasks of the edited system retrace the seed's trajectory).
//
// Within one analysis every parameter is fixed, so only the numeric
// check runs. Against a seed, planDelta first establishes, once per
// call, which tasks read the same parameters as their seed counterpart
// (seedable): the task's transaction is matched to a seed transaction
// that is unchanged or differs only in priorities at the same
// position, its platform's (α, Δ, β) are unchanged, and its
// interference set maps one to one onto its counterpart's, with no
// interferer from an unmatched transaction on either side. Priorities
// enter the analysis only through that membership, so a priority probe
// (package sched) leaves seedable every task on the moved task's
// platform whose priority lies outside the band between the old and
// the new level, and every task elsewhere. The round-by-round check
// then decides which seedable tasks the edit's effect has reached.
//
// One ordering caveat: interference terms are summed in transaction
// index order, so the replay additionally requires the matched
// transactions to keep their relative order (model.SystemDiff.InOrder,
// extended to the priority-only pairs) — a reordered system could
// differ from the seed in the last bits of a floating-point sum even
// with identical operands. In-place edits, appends, insertions and
// removals all preserve relative order; only genuine permutations fall
// back to the cold path.

// deltaPlan is the replay state of one AnalyzeFrom call. Its slices
// are engine scratch, reused across calls.
type deltaPlan struct {
	// base is the seed's recorded per-round results, shared with (and
	// only ever read from) the seed Result.
	base [][][]TaskResult

	// oldIdx maps a new-system transaction index to its matched seed
	// transaction (−1 for unmatched transactions).
	oldIdx []int

	// seedable[k] reports that the task of flat index k reads the same
	// parameters as its seed counterpart; clean counts them.
	seedable []bool
	clean    int

	// fromSeed[k] reports that the task of flat index k was copied from
	// the seed in the current round. The workers of a parallel round
	// write disjoint slots; snapshotRound reads them.
	fromSeed []bool

	// changedPlat, oldMatched and reprioritised are planning scratch:
	// the platforms whose (α, Δ, β) moved, the matched seed
	// transactions, and the new transactions matched by priority only.
	changedPlat   []bool
	oldMatched    []bool
	reprioritised []bool
}

// planDelta decides whether an incremental analysis seeded by prev is
// sound for the bound system under the engine's options, and if so
// fills the replay state into the engine's scratch. A nil return means
// "run cold"; AnalyzeFrom treats it as a silent fallback. Called after
// bind, so e.flat, e.rowStart and the hp rows describe the new system.
func (e *Engine) planDelta(prev *Result, sys *model.System) *deltaPlan {
	if prev == nil || prev.System == nil || len(prev.history) == 0 {
		return nil
	}
	// The seed must have been computed under the same analysis
	// semantics: a different epsilon, scenario mode or best-case bound
	// converges along a different trajectory. A stop rule only cuts
	// the stop-free trajectory short, so the seed's recorded rounds
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

	p := &e.delta
	p.oldIdx = reuseRow(p.oldIdx, len(sys.Transactions))
	for i := range p.oldIdx {
		p.oldIdx[i] = -1
	}
	p.reprioritised = reuseRow(p.reprioritised, len(sys.Transactions))
	clear(p.reprioritised)
	p.oldMatched = reuseRow(p.oldMatched, len(old.Transactions))
	clear(p.oldMatched)
	p.changedPlat = reuseRow(p.changedPlat, len(sys.Platforms))
	clear(p.changedPlat)
	for _, m := range d.ChangedPlatforms {
		p.changedPlat[m] = true
	}
	match := func(q [2]int) {
		p.oldIdx[q[1]] = q[0]
		p.oldMatched[q[0]] = true
	}
	for _, q := range d.Unchanged {
		match(q)
	}
	for _, q := range d.Modified {
		if q[0] == q[1] && model.PriorityOnlyDiff(&old.Transactions[q[0]], &sys.Transactions[q[1]]) {
			match(q)
			p.reprioritised[q[1]] = true
		}
	}
	// The ordering caveat applies to the COMBINED matching: d.InOrder()
	// covers only the unchanged pairs among themselves, and a positional
	// priority pair can interleave out of order with fingerprint-matched
	// unchanged pairs when transactions were also added or removed.
	last := -1
	for _, o := range p.oldIdx {
		if o < 0 {
			continue
		}
		if o <= last {
			return nil
		}
		last = o
	}

	p.seedable = reuseRow(p.seedable, len(e.flat))
	p.fromSeed = reuseRow(p.fromSeed, len(e.flat))
	clear(p.fromSeed)
	p.clean = 0
	for k, c := range e.flat {
		p.seedable[k] = e.seedable(old, sys, c[0], c[1])
		if p.seedable[k] {
			p.clean++
		}
	}
	if p.clean == 0 {
		// Nothing can ever be copied: the cold path is strictly cheaper
		// than checking every task against the seed every round.
		return nil
	}
	p.base = prev.history
	return p
}

// seedable reports whether task (a, b) of sys reads the same parameters
// as its counterpart in the seed system old: see the copy rule above.
func (e *Engine) seedable(old, sys *model.System, a, b int) bool {
	p := &e.delta
	o := p.oldIdx[a]
	t := &sys.Transactions[a].Tasks[b]
	if o < 0 || p.changedPlat[t.Platform] {
		return false
	}
	ot := &old.Transactions[o].Tasks[b]
	for i := range sys.Transactions {
		oi := p.oldIdx[i]
		if oi >= 0 && !p.reprioritised[a] && !p.reprioritised[i] {
			// Both transactions keep every priority and platform, so
			// every pair between them keeps its Eq. 17 membership.
			continue
		}
		for j := range sys.Transactions[i].Tasks {
			if i == a && j == b {
				continue
			}
			in := interferes(t, &sys.Transactions[i].Tasks[j])
			if (oi < 0 && in) || (oi >= 0 && in != interferes(ot, &old.Transactions[oi].Tasks[j])) {
				return false
			}
		}
	}
	for oi := range old.Transactions {
		if p.oldMatched[oi] {
			continue
		}
		for j := range old.Transactions[oi].Tasks {
			if interferes(ot, &old.Transactions[oi].Tasks[j]) {
				return false
			}
		}
	}
	return true
}

// inputsMatch reports whether every offset, jitter and best case that
// task (a, b) of the working system reads — its own, and the offsets
// and jitters of its interference set — equals, bit for bit, what the
// reference round ref recorded. idx maps a working-system transaction
// to its row of ref; nil is the identity.
func (e *Engine) inputsMatch(a, b int, ref [][]TaskResult, idx []int) bool {
	ra := a
	if idx != nil {
		ra = idx[a]
	}
	r, t := &ref[ra][b], &e.work.Transactions[a].Tasks[b]
	if !bitsEqual(r.Offset, t.Offset) || !bitsEqual(r.Jitter, t.Jitter) || !bitsEqual(r.Best, e.an.slabs[a].initCompl[b]) {
		return false
	}
	for i, hpI := range e.an.hpRow(a, b) {
		if len(hpI) == 0 {
			continue
		}
		ri := i
		if idx != nil {
			ri = idx[i]
		}
		refRow, tasks := ref[ri], e.work.Transactions[i].Tasks
		for _, j := range hpI {
			if !bitsEqual(refRow[j].Offset, tasks[j].Offset) || !bitsEqual(refRow[j].Jitter, tasks[j].Jitter) {
				return false
			}
		}
	}
	return true
}

// bitsEqual compares two floats by bit pattern.
func bitsEqual(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
