package analysis

import (
	"fmt"

	"hsched/internal/model"
)

// ErrTooManyScenarios is wrapped in the error returned when the exact
// analysis would exceed Options.MaxScenarios scenario vectors.
var ErrTooManyScenarios = fmt.Errorf("analysis: exact scenario count exceeds limit")

// txSlab is the per-transaction slab of analysis state: everything the
// engine and analyzer know about one transaction Γa lives here, keyed
// by the transaction's position in the system under analysis. The
// slabs carry buffers from one analysis to the next, never values:
// every field is rewritten (by bind, or by the stage that owns it)
// before an analysis reads it, so the outcome and the work counts of
// an analysis never depend on what the engine analysed before. The replay the incremental path
// (Engine.AnalyzeFrom) builds on comes from the seed Result's history,
// not from the slabs.
type txSlab struct {
	// hp[b][i] lists the task indices j of transaction i that can
	// interfere with τa,b per Eq. (17): priority ≥ pa,b and same
	// platform. For i == a the task (a, b) itself is excluded (its own
	// jobs are accounted separately in Eq. 13/16).
	hp [][][]int

	// reduced[j] is the offset φa,j reduced modulo Ta, computed once
	// per analysis (the holistic rounds rewrite jitters, never
	// offsets).
	reduced []float64

	// initStarts / initCompl are the transaction's best-case bounds of
	// Eq. (18), computed once per analysis.
	initStarts []float64
	initCompl  []float64

	// overload[b] reports that τa,b's long-run demand plus its
	// interfering set's exceeds the platform rate (unbounded busy
	// period). It depends only on WCETs, periods and platform rates —
	// never on the jitters the holistic rounds rewrite — so bind
	// evaluates it once per analysis instead of once per round.
	overload []bool

	// round holds the transaction's TaskResults of the current
	// fixed-point round.
	round []TaskResult
}

// analyzer carries the per-run state of the static-offset analysis:
// the system under analysis (whose offsets/jitters the holistic loop
// rewrites between rounds) and the transaction-keyed slabs holding the
// interference rows and reduced offsets. It is the
// interference-construction stage of the engine pipeline: bind
// attaches a system and rebuilds its hp rows, and refreshOffsets
// derives the reduced offsets feeding Eq. (10)/(11).
type analyzer struct {
	sys *model.System
	opt Options

	// slabs is the per-transaction state, indexed like
	// sys.Transactions.
	slabs []txSlab
}

// bind attaches a system to the analyzer. Slabs are resized to the
// system's dimensions (reusing backing arrays) and every hp row is
// rebuilt in place. bind does not refresh the reduced offsets; each
// entry point runs that stage itself.
func (an *analyzer) bind(sys *model.System, opt Options) {
	an.sys, an.opt = sys, opt
	n := len(sys.Transactions)
	if cap(an.slabs) < n {
		slabs := make([]txSlab, n)
		copy(slabs, an.slabs)
		an.slabs = slabs
	} else {
		an.slabs = an.slabs[:n]
	}
	for i := range an.slabs {
		sl := &an.slabs[i]
		m := len(sys.Transactions[i].Tasks)
		sl.reduced = reuseRow(sl.reduced, m)
		sl.initStarts = reuseRow(sl.initStarts, m)
		sl.initCompl = reuseRow(sl.initCompl, m)
		sl.overload = reuseRow(sl.overload, m)
		sl.round = reuseRow(sl.round, m)
	}
	for a := range an.slabs {
		an.buildHPRow(a)
	}
	// Still once per analysis, not per round: nothing the overload
	// test reads is rewritten by the holistic iteration.
	an.refreshOverload()
}

// refreshOverload precomputes the per-task utilisation overload test
// into the slabs; see txSlab.overload.
func (an *analyzer) refreshOverload() {
	for a := range an.slabs {
		tasks := an.sys.Transactions[a].Tasks
		for b := range tasks {
			alpha := an.sys.Platforms[tasks[b].Platform].Alpha
			an.slabs[a].overload[b] = an.overloaded(a, b, alpha)
		}
	}
}

// buildHPRow rebuilds the full interference row of transaction a.
func (an *analyzer) buildHPRow(a int) {
	sl := &an.slabs[a]
	nTasks := len(an.sys.Transactions[a].Tasks)
	n := len(an.sys.Transactions)
	if cap(sl.hp) < nTasks {
		sl.hp = make([][][]int, nTasks)
	} else {
		sl.hp = sl.hp[:nTasks]
	}
	for b := 0; b < nTasks; b++ {
		row := sl.hp[b]
		if cap(row) < n {
			row = make([][]int, n)
		} else {
			row = row[:n]
		}
		for i := 0; i < n; i++ {
			row[i] = an.hpFill(a, b, i, row[i][:0])
		}
		sl.hp[b] = row
	}
}

// interferes is the interference-set membership rule of Eq. (17): a
// task tj can interfere with the task under analysis ta when it runs
// on the same platform at a priority at least ta's. The single
// definition is shared by the hp-row construction and ScenarioCount,
// so the counts always describe what the sweep actually enumerates.
func interferes(ta, tj *model.Task) bool {
	return tj.Platform == ta.Platform && tj.Priority >= ta.Priority
}

// hpFill appends to dst the task indices of transaction i that can
// interfere with τa,b per interferes, excluding the task itself.
func (an *analyzer) hpFill(a, b, i int, dst []int) []int {
	ta := &an.sys.Transactions[a].Tasks[b]
	tasks := an.sys.Transactions[i].Tasks
	for j := range tasks {
		if i == a && j == b {
			continue
		}
		if interferes(ta, &tasks[j]) {
			dst = append(dst, j)
		}
	}
	return dst
}

// hpRow returns the interference row of task (a, b).
func (an *analyzer) hpRow(a, b int) [][]int { return an.slabs[a].hp[b] }

// refreshOffsets recomputes the reduced offsets into the per-slab
// buffers. Each entry point calls it once per analysis, after bind:
// the holistic rounds rewrite jitters only, so the offsets it reads
// are fixed for the rest of the analysis.
func (an *analyzer) refreshOffsets() {
	for i := range an.sys.Transactions {
		tr := &an.sys.Transactions[i]
		reduced := an.slabs[i].reduced
		for j := range tr.Tasks {
			reduced[j] = modPos(tr.Tasks[j].Offset, tr.Period)
		}
	}
}

// reuseRow shapes buf to n elements, reusing the backing array when
// large enough. Contents are unspecified after the call.
func reuseRow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// reuseMatrix shapes buf to one row per transaction and one column per
// task, reusing the existing backing arrays whenever they are large
// enough. Contents are unspecified after the call.
func reuseMatrix[T any](buf [][]T, sys *model.System) [][]T {
	n := len(sys.Transactions)
	if cap(buf) < n {
		buf = make([][]T, n)
	} else {
		buf = buf[:n]
	}
	for i := range buf {
		buf[i] = reuseRow(buf[i], len(sys.Transactions[i].Tasks))
	}
	return buf
}

// phaseK returns ϕ^k_{i,j} (Eq. 10) with reduced offsets.
func (an *analyzer) phaseK(i, k, j int) float64 {
	tr := &an.sys.Transactions[i]
	reduced := an.slabs[i].reduced
	return phase(reduced[k], tr.Tasks[k].Jitter, reduced[j], tr.Period)
}

// phaseTable is the t-invariant half of Eq. (10)-(11) for one task
// τa,b: for every transaction Γi with a non-empty hp_i(τa,b), every
// candidate initiator k (hp_i, plus τa,b itself on Γa) and every
// interfering task j ∈ hp_i, the phase ϕ^k_{i,j} and the floor term
// ⌊(Ji,j + ϕ^k_{i,j})/Ti⌋ of W^k_i. Both read only reduced offsets and
// jitters, which no busy-period or completion step moves, so the
// fixed points of scenarioResponse evaluate only ⌈(t − ϕ)/Ti⌉ per step.
//
// Beside the phases sits the L0 row: W^k_i(L0) for every candidate
// (i, k) and W*_i(L0) for every Γi, where L0 = Δ + B + C/α is the
// first step of every scenario's busy period and of its first job's
// completion. The entries are the very wk values those steps would
// compute, taken through the same max for W*, so interference0 sums
// them bit for bit as interference would at t = L0.
//
// The table is rebuilt by every responseTime call and never cached
// beyond it: jitters move between holistic rounds, and the pooled
// scratch crosses round, analysis and engine boundaries. Every run and every W^k_i(L0) is read at least once per
// call (by the W* sums of the approximate scenarios or of pruneBounds,
// or by the exact sweep itself), so the build never evaluates more
// phases or W^k_i terms than the per-step sums it replaces.
//
// The flat slices live in taskScratch and are reused across calls.
// Transaction i's block starts at row[i] and holds one run of len(hp_i)
// entries per task index k of Γi; only the candidate runs are filled.
// Its L0 block starts at row0[i] and holds W*_i(L0) followed by one
// W^k_i(L0) per task index k, again filled for the candidates only.
type phaseTable struct {
	row []int
	phi []float64
	fl  []float64
	// l0 is the shared first step t = L0; row0 and w0 hold the L0 row.
	l0   float64
	row0 []int
	w0   []float64
	// eps is Options.eps, hoisted out of the fixed-point steps.
	eps float64
	// evals counts the wk evaluations since responseTime last zeroed
	// it: the task computation's share of Result.InterferenceEvals.
	evals int64
}

// buildPhaseTable fills pt for task (a, b) from the current reduced
// offsets and jitters, and evaluates its L0 row.
func (an *analyzer) buildPhaseTable(pt *phaseTable, a, b int, hp [][]int) {
	ta := &an.sys.Transactions[a].Tasks[b]
	pl := &an.sys.Platforms[ta.Platform]
	pt.eps = an.opt.eps()
	// The same expression as scenarioResponse's first busy-period step.
	pt.l0 = pl.Delta + ta.Blocking + ta.WCET/pl.Alpha
	pt.row = reuseRow(pt.row, len(hp))
	pt.row0 = reuseRow(pt.row0, len(hp))
	size, size0 := 0, 0
	for i, hpI := range hp {
		pt.row[i], pt.row0[i] = size, size0
		if len(hpI) > 0 {
			n := len(an.sys.Transactions[i].Tasks)
			size += n * len(hpI)
			size0 += 1 + n
		}
	}
	pt.phi = reuseRow(pt.phi, size)
	pt.fl = reuseRow(pt.fl, size)
	pt.w0 = reuseRow(pt.w0, size0)
	for i, hpI := range hp {
		if len(hpI) == 0 {
			continue
		}
		tr := &an.sys.Transactions[i]
		w0 := pt.w0[pt.row0[i]:]
		// W*_i(L0) exactly as wstar computes it; on Γa it is never read.
		star := 0.0
		for _, k := range hpI {
			an.fillPhaseRun(pt, i, k, hpI)
			w := pt.wk(tr, i, k, hpI, pl.Alpha, pt.l0)
			w0[1+k] = w
			if w > star {
				star = w
			}
		}
		w0[0] = star
		if i == a {
			an.fillPhaseRun(pt, i, b, hpI)
			w0[1+b] = pt.wk(tr, i, b, hpI, pl.Alpha, pt.l0)
		}
	}
}

// fillPhaseRun fills the run of initiator k in transaction i's block.
func (an *analyzer) fillPhaseRun(pt *phaseTable, i, k int, hpI []int) {
	tr := &an.sys.Transactions[i]
	off := pt.row[i] + k*len(hpI)
	for m, j := range hpI {
		phi := an.phaseK(i, k, j)
		pt.phi[off+m] = phi
		pt.fl[off+m] = floorE((tr.Tasks[j].Jitter+phi)/tr.Period, pt.eps)
	}
}

// wk returns W^k_i(τa,b, t) per Eq. (11): the worst-case interference
// of transaction Γi (tr) on the busy period of τa,b when the busy
// period is initiated by τi,k at its maximal jitter. alpha is the rate
// of the platform of the task under analysis; the phases and floor
// terms come from the table.
func (pt *phaseTable) wk(tr *model.Transaction, i, k int, hpI []int, alpha, t float64) float64 {
	off := pt.row[i] + k*len(hpI)
	phis := pt.phi[off : off+len(hpI)]
	fls := pt.fl[off : off+len(hpI)]
	pt.evals++
	sum := 0.0
	for m, j := range hpI {
		jobs := fls[m] + ceilE((t-phis[m])/tr.Period, pt.eps)
		if jobs > 0 {
			sum += jobs * tr.Tasks[j].WCET / alpha
		}
	}
	return sum
}

// wstar returns W*_i(τa,b, t) per Eq. (15): the pointwise maximum of
// W^k_i over every candidate critical-instant task k in hp_i(τa,b).
func (pt *phaseTable) wstar(tr *model.Transaction, i int, hpI []int, alpha, t float64) float64 {
	best := 0.0
	for _, k := range hpI {
		if w := pt.wk(tr, i, k, hpI, alpha, t); w > best {
			best = w
		}
	}
	return best
}

// interference0 is analyzer.interference at t = L0, summed from the
// L0 row in the same order — the same bits with no wk evaluation.
func (pt *phaseTable) interference0(a int, sc scenario, hp [][]int) float64 {
	sum := 0.0
	if sc.nu == nil {
		for i, hpI := range hp {
			if len(hpI) == 0 {
				continue
			}
			if i == a {
				sum += pt.w0[pt.row0[a]+1+sc.c]
			} else {
				sum += pt.w0[pt.row0[i]]
			}
		}
		return sum
	}
	for _, ch := range sc.nu {
		if len(hp[ch.tr]) == 0 {
			continue
		}
		sum += pt.w0[pt.row0[ch.tr]+1+ch.k]
	}
	return sum
}
