package analysis

import (
	"context"
	"fmt"
	"math"

	"hsched/internal/model"
)

// initiator is one coordinate of a scenario vector ν: the task τ_{tr,k}
// whose maximally-jittered release starts the busy period within its
// transaction.
type initiator struct{ tr, k int }

// scenario is one candidate worst-case configuration for τa,b. Two
// encodings share the struct:
//
//   - nu == nil: an approximate scenario of Section 3.1.2 — Γa is
//     initiated by τa,c (exact contribution W^c_a, Eq. 16) and every
//     other transaction is charged its upper bound W* (Eq. 15);
//   - nu != nil: an exact scenario vector of Section 3.1.1 — one
//     initiator per transaction with interfering tasks (Eq. 12).
//
// Scenarios are plain data (no captured closures): the interference
// they induce is evaluated by analyzer.interference, which keeps the
// per-scenario footprint to a few words.
type scenario struct {
	c  int
	nu []initiator
}

// taskScratch holds the per-task-analysis buffers (candidate lists,
// mixed-radix cursor state, prune bounds, the phase table). The engine
// keeps a pool of them so that concurrent per-task response
// computations reuse allocations instead of growing fresh slices on
// every call.
type taskScratch struct {
	cands []int
	axes  []axis
	pick  []int
	// nu is the cursor's scenario vector: one initiator per axis,
	// rewritten in place as the cursor advances.
	nu     []initiator
	bounds []float64

	// phases is the task's phase table; see phaseTable.
	phases phaseTable
}

// shrink drops scratch buffers that grew past a high-water cap, so a
// single huge analysis does not pin its peak memory for the lifetime
// of a reused engine. Called between analyses, never inside one. The
// buffers are bounded by axis, candidate and task counts, small by
// construction, but an outlier system with thousands of transactions
// or tasks per transaction would still pin them across reuse.
func (ts *taskScratch) shrink() {
	const maxRetain = 1 << 16
	const maxSmallRetain = 1 << 10
	if cap(ts.cands) > maxSmallRetain {
		ts.cands = nil
	}
	if cap(ts.axes) > maxSmallRetain {
		ts.axes = nil
	}
	if cap(ts.pick) > maxSmallRetain {
		ts.pick = nil
	}
	if cap(ts.nu) > maxSmallRetain {
		ts.nu = nil
	}
	if cap(ts.bounds) > maxSmallRetain {
		ts.bounds = nil
	}
	if cap(ts.phases.row) > maxSmallRetain {
		ts.phases.row = nil
		ts.phases.row0 = nil
	}
	if cap(ts.phases.w0) > maxSmallRetain {
		ts.phases.w0 = nil
	}
	if cap(ts.phases.phi) > maxRetain {
		ts.phases.phi = nil
		ts.phases.fl = nil
	}
}

// axis is one dimension of the exact scenario product: the candidate
// critical-instant tasks of one transaction.
type axis struct {
	tr    int
	cands []int
}

// critical identifies the configuration attaining a worst-case
// response: the busy-period initiator c and the job index p.
type critical struct {
	initiator int
	job       int
}

// unboundedCritical marks an unbounded response.
var unboundedCritical = critical{initiator: -1}

// cancelCheckInterval is how many scenarios a response-time sweep
// steps through between context polls: an exact analysis can face
// millions of scenarios per task, each a few fixed-point iterations,
// so polling every few hundred keeps cancellation latency in the
// microsecond range while the poll itself stays invisible in profiles.
const cancelCheckInterval = 256

// sweepStats is the work profile one task's response computation
// reports upward: the exact scenarios the admissible prune skipped,
// the whole-subtree cursor jumps among them, and the W^k_i
// evaluations the computation spent.
type sweepStats struct {
	pruned   int64
	subtrees int64
	evals    int64
}

// responseTime computes the worst-case response time R of τa,b
// (0-based indices), measured from the activation of Γa, with the
// offsets and jitters currently stored in the system, together with
// the scenario attaining it and the sweep's work profile. It returns
// +Inf when the busy period does not converge (platform overload). ts
// provides reusable buffers; it must not be shared between concurrent
// calls. ctx is polled every cancelCheckInterval scenarios so huge
// exact sweeps abort promptly.
func (an *analyzer) responseTime(ctx context.Context, a, b int, ts *taskScratch) (float64, critical, sweepStats, error) {
	ta := &an.sys.Transactions[a].Tasks[b]
	alpha := an.sys.Platforms[ta.Platform].Alpha
	hp := an.hpRow(a, b)

	if an.slabs[a].overload[b] {
		return math.Inf(1), unboundedCritical, sweepStats{}, nil
	}

	ts.phases.evals = 0
	if an.opt.Exact {
		r, crit, st, err := an.exactSweep(ctx, a, b, hp, alpha, ts)
		st.evals = ts.phases.evals
		return r, crit, st, err
	}

	// The approximate analysis of Section 3.1.2: one scenario per
	// candidate initiator c ∈ hp_a(τa,b) ∪ {τa,b}, charging Γa its
	// exact contribution W^c_a (Eq. 16) and every other transaction its
	// upper bound W* (Eq. 15). The first strict maximum is kept.
	an.buildPhaseTable(&ts.phases, a, b, hp)
	best, crit := 0.0, critical{initiator: b}
	hpA := hp[a]
	for i := 0; i <= len(hpA); i++ {
		if i%cancelCheckInterval == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, unboundedCritical, sweepStats{evals: ts.phases.evals}, wrapCancelled(err)
			}
		}
		c := b
		if i < len(hpA) {
			c = hpA[i]
		}
		r, p, ok := an.scenarioResponse(a, b, scenario{c: c}, hp, alpha, &ts.phases)
		if !ok {
			return math.Inf(1), unboundedCritical, sweepStats{evals: ts.phases.evals}, nil
		}
		if r > best {
			best, crit = r, critical{initiator: c, job: p}
		}
	}
	return best, crit, sweepStats{evals: ts.phases.evals}, nil
}

// exactSweep runs the exact scenario enumeration of Section 3.1.1 as a
// streamed, branch-and-bound sweep over the mixed-radix scenario space:
// its result is the first maximum over every scenario in cursor order,
// bit for bit, which the tests check against a naive sweep that
// evaluates each scenario. The admissible per-initiator bounds of
// pruneBounds make it a tree search instead of a per-scenario filter:
// the cursor skips the whole subtree under a Γa initiator with one
// seek once its bound cannot beat the running best (see sweepRange).
// The sweep carries nothing between rounds; a task whose inputs did
// not move is copied by the engine, not swept again.
func (an *analyzer) exactSweep(ctx context.Context, a, b int, hp [][]int, alpha float64, ts *taskScratch) (float64, critical, sweepStats, error) {
	var st sweepStats
	axes, aAxis, count, err := an.buildAxes(a, b, hp, ts)
	if err != nil {
		return 0, unboundedCritical, st, err
	}
	an.buildPhaseTable(&ts.phases, a, b, hp)

	// The bound computation costs one approximate fixed point per Γa
	// initiator; on a degenerate single-axis sweep (count equals the
	// initiator count — no cross-transaction product at all) that is
	// as much work as the sweep itself with nothing to amortise it, so
	// pruning only arms when other axes multiply the space.
	var bounds []float64
	if count > len(axes[aAxis].cands) {
		bounds = an.pruneBounds(a, b, hp, alpha, axes[aAxis].cands, ts)
	}

	res, err := an.sweepRange(ctx, a, b, axes, aAxis, count, hp, alpha, bounds, ts)
	if err != nil {
		return 0, unboundedCritical, st, err
	}
	st.pruned, st.subtrees = res.pruned, res.subtrees
	if !res.finite {
		return math.Inf(1), unboundedCritical, st, nil
	}
	return res.best, res.crit, st, nil
}

// sweepResult is one exact sweep's reduction: its best response with
// the scenario attaining it, the scenarios the prune skipped with the
// whole-subtree jumps among them, and whether every evaluated fixed
// point converged.
type sweepResult struct {
	best     float64
	crit     critical
	pruned   int64
	subtrees int64
	finite   bool
}

// sweepRange evaluates the exact scenarios with flat indices [0, n)
// in cursor order. bounds, when non-nil, arms the branch-and-bound
// prune: bounds[c] is pruneBounds' admissible bound on every scenario
// whose Γa initiator is c, so when the current scenario's bound cannot
// strictly beat the running best, neither can any scenario that keeps
// the digits of axes ≥ aAxis, and the cursor seeks straight past that
// whole subtree instead of stepping through it (on aAxis == 0 the
// subtree is the scenario itself). The running best may prune ties
// (bound <= best): a tie with an earlier scenario never updates best
// under the strict r > best rule. The cursor state lives in ts.
func (an *analyzer) sweepRange(ctx context.Context, a, b int, axes []axis, aAxis, n int, hp [][]int, alpha float64, bounds []float64, ts *taskScratch) (sweepResult, error) {
	pick, nu := ts.pick[:len(axes)], ts.nu[:len(axes)]
	cursorSeek(axes, pick, nu, 0)
	// stride is the size of the subtree that fixes the digits of axes
	// ≥ aAxis: the run of consecutive flat indices sharing one Γa
	// initiator. It divides n, so a jump never overshoots it.
	stride := 1
	for _, ax := range axes[:aAxis] {
		stride *= len(ax.cands)
	}
	res := sweepResult{crit: critical{initiator: b}, finite: true}
	steps := 0
	for idx := 0; idx < n; {
		if steps%cancelCheckInterval == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return sweepResult{}, wrapCancelled(err)
			}
		}
		steps++
		if bounds != nil {
			if bounds[nu[aAxis].k] <= res.best {
				if aAxis == 0 {
					res.pruned++
					cursorNext(axes, pick, nu)
					idx++
					continue
				}
				next := idx - idx%stride + stride
				res.pruned += int64(next - idx)
				res.subtrees++
				idx = next
				if idx >= n {
					break
				}
				cursorSeek(axes, pick, nu, idx)
				continue
			}
		}
		sc := scenario{c: nu[aAxis].k, nu: nu}
		r, p, ok := an.scenarioResponse(a, b, sc, hp, alpha, &ts.phases)
		if !ok {
			// Unbounded is absorbing: the task's response is +Inf
			// whichever scenario diverged first.
			res.finite = false
			return res, nil
		}
		if r > res.best {
			res.best = r
			res.crit = critical{initiator: sc.c, job: p}
		}
		cursorNext(axes, pick, nu)
		idx++
	}
	return res, nil
}

// overloaded reports whether the long-run demand of τa,b plus its
// interfering set exceeds the platform rate, which makes the busy
// period unbounded. It reads only WCETs, periods and the platform
// rate — inputs the holistic rounds never rewrite — so the analyzer
// evaluates it once per analysis into the slabs (refreshOverload)
// instead of re-summing the hp row every round.
func (an *analyzer) overloaded(a, b int, alpha float64) bool {
	ta := &an.sys.Transactions[a].Tasks[b]
	u := ta.WCET / (an.sys.Transactions[a].Period * alpha)
	for i, hpI := range an.hpRow(a, b) {
		tr := &an.sys.Transactions[i]
		for _, j := range hpI {
			u += tr.Tasks[j].WCET / (tr.Period * alpha)
		}
	}
	return u >= 1-1e-12
}

// interference returns the total higher-priority demand the scenario sc
// charges to a busy period of length t of τa,b (already scaled by 1/α),
// excluding the jobs of τa,b itself: Eq. 13 for exact scenario vectors,
// Eq. 15/16 for the approximate reduction.
func (an *analyzer) interference(a int, sc scenario, hp [][]int, alpha, t float64, pt *phaseTable) float64 {
	txs := an.sys.Transactions
	sum := 0.0
	if sc.nu == nil {
		for i, hpI := range hp {
			if len(hpI) == 0 {
				continue
			}
			if i == a {
				sum += pt.wk(&txs[a], a, sc.c, hpI, alpha, t)
			} else {
				sum += pt.wstar(&txs[i], i, hpI, alpha, t)
			}
		}
		return sum
	}
	for _, ch := range sc.nu {
		if len(hp[ch.tr]) == 0 {
			continue
		}
		sum += pt.wk(&txs[ch.tr], ch.tr, ch.k, hp[ch.tr], alpha, t)
	}
	return sum
}

// buildAxes derives the axes of the exact scenario product of Section
// 3.1.1 — per transaction with interfering tasks, its candidate
// critical-instant set (Eq. 12), with the task under analysis added to
// its own transaction's candidates — plus the index aAxis of the
// transaction under analysis among them and the product count.
func (an *analyzer) buildAxes(a, b int, hp [][]int, ts *taskScratch) (axes []axis, aAxis, count int, err error) {
	axes = ts.axes[:0]
	count = 1
	aAxis = -1
	limit := an.opt.maxScenarios()
	for i, hpI := range hp {
		var cands []int
		if i == a {
			// The only axis whose candidate list differs from hp itself;
			// it borrows the scratch candidate buffer.
			ts.cands = append(append(ts.cands[:0], hpI...), b)
			cands = ts.cands
			aAxis = len(axes)
		} else if len(hpI) > 0 {
			cands = hpI
		} else {
			continue
		}
		axes = append(axes, axis{tr: i, cands: cands})
		// Checked before multiplying, as in ScenarioCount: under a limit
		// near math.MaxInt the product would wrap around to a small (even
		// zero) count and the sweep would evaluate too few scenarios.
		if count > limit/len(cands) {
			ts.axes = axes
			return nil, 0, 0, fmt.Errorf("%w: task τ%d,%d needs more than %d scenarios",
				ErrTooManyScenarios, a+1, b+1, limit)
		}
		count *= len(cands)
	}
	ts.axes = axes
	if cap(ts.pick) < len(axes) {
		ts.pick = make([]int, len(axes))
	}
	if cap(ts.nu) < len(axes) {
		ts.nu = make([]initiator, len(axes))
	}
	return axes, aAxis, count, nil
}

// pruneBounds computes, for every candidate initiator c of the
// transaction under analysis, an upper bound on the response of every
// exact scenario with ν_a = c: the fixed point of the approximate
// scenario that charges Γa its exact contribution W^c_a and every
// other transaction the pointwise maximum W* (Eq. 15). W* dominates
// every per-initiator W^k termwise, the busy-period and completion
// fixed points are monotone in the interference, and the dominated job
// range is a subset — so the bound is admissible, and a scenario whose
// bound cannot strictly beat the running best can be skipped without
// changing any result bit. A bound whose own fixed point diverges is
// +Inf, which never prunes. The returned slice is indexed by initiator
// task id; entries for non-candidates are stale and must not be read.
func (an *analyzer) pruneBounds(a, b int, hp [][]int, alpha float64, cands []int, ts *taskScratch) []float64 {
	nTasks := len(an.sys.Transactions[a].Tasks)
	if cap(ts.bounds) < nTasks {
		ts.bounds = make([]float64, nTasks)
	}
	bounds := ts.bounds[:nTasks]
	for _, c := range cands {
		r, _, ok := an.scenarioResponse(a, b, scenario{c: c}, hp, alpha, &ts.phases)
		if !ok {
			r = math.Inf(1)
		}
		bounds[c] = r
	}
	ts.bounds = bounds
	return bounds
}

// cursorSeek positions the mixed-radix scenario cursor at flat index
// idx: pick[i] is the candidate index of axis i — axis 0 is the
// fastest-varying digit — and nu mirrors it as the (transaction,
// initiator) pairs the interference sum consumes, in axis order.
func cursorSeek(axes []axis, pick []int, nu []initiator, idx int) {
	for i := range axes {
		n := len(axes[i].cands)
		d := idx % n
		idx /= n
		pick[i] = d
		nu[i] = initiator{tr: axes[i].tr, k: axes[i].cands[d]}
	}
}

// cursorNext advances the cursor one scenario, rewriting only the nu
// entries of the axes whose digit moved — amortised O(1) per step.
func cursorNext(axes []axis, pick []int, nu []initiator) {
	for i := range axes {
		pick[i]++
		if pick[i] < len(axes[i].cands) {
			nu[i] = initiator{tr: axes[i].tr, k: axes[i].cands[pick[i]]}
			return
		}
		pick[i] = 0
		nu[i] = initiator{tr: axes[i].tr, k: axes[i].cands[0]}
	}
}

// scenarioResponse evaluates one scenario: busy-period length (the
// iterative expression below Eq. 16), the job range p0..pL (Eq. 14)
// and the completion-time fixed point for every job (Eq. 16),
// returning the largest response time and the job index attaining it.
// pt is the task's phase table, built by the enclosing responseTime
// call. ok is false when a fixed point was not reached within
// Options.MaxInner steps, or the busy period spans more than MaxInner
// jobs.
//
// Two shortcuts skip work whose bits are already known. The first
// step of the busy period and of job p0's completion is t = L0 for
// every scenario, so both read its interference from the table's L0
// row. And when every busy-period step counted exactly one job of
// τa,b, job p0's completion iteration would start from the same L0,
// add the same (p−p0+1)·C/α with the factor 1, and so retrace the busy
// period step for step under the same MaxInner cap: w_p0 == L bit for
// bit and pL == p0, so L's response is returned directly.
func (an *analyzer) scenarioResponse(a, b int, sc scenario, hp [][]int, alpha float64, pt *phaseTable) (float64, int, bool) {
	tr := &an.sys.Transactions[a]
	ta := &tr.Tasks[b]
	eps := an.opt.eps()
	delta := an.sys.Platforms[ta.Platform].Delta
	cOverAlpha := ta.WCET / alpha
	base := delta + ta.Blocking

	phi := an.phaseK(a, sc.c, b)
	p0 := 1 - floorE((ta.Jitter+phi)/tr.Period, eps)
	i0 := pt.interference0(a, sc, hp)

	// Busy-period length L.
	L := base + cOverAlpha
	converged := false
	single := true
	for it := 0; it < an.opt.maxInner(); it++ {
		jobs := ceilE((L-phi)/tr.Period, eps) - p0 + 1
		if jobs < 0 {
			jobs = 0
		}
		single = single && jobs == 1
		in := i0
		if it > 0 {
			in = an.interference(a, sc, hp, alpha, L, pt)
		}
		next := base + jobs*cOverAlpha + in
		if next <= L+eps {
			converged = true
			break
		}
		L = next
	}
	if !converged {
		return 0, 0, false
	}
	pL := ceilE((L-phi)/tr.Period, eps)

	best := 0.0
	bestJob := int(p0)
	// pL == p0 follows from the last step's jobs == 1; it is checked,
	// not assumed.
	if single && pL == p0 {
		if r := L - (phi + (p0-1)*tr.Period - ta.Offset); r > best {
			best = r
		}
		return best, bestJob, true
	}
	// A busy period of more jobs than MaxInner is as unbounded as an
	// inner iteration that never settles. Walking it job by job would
	// hold the analysis between poll points for as long, and past 2^53
	// jobs the float index stops advancing and the walk never ends.
	if pL-p0 >= float64(an.opt.maxInner()) {
		return 0, 0, false
	}
	w := 0.0
	for p := p0; p <= pL; p++ {
		floor := base + (p-p0+1)*cOverAlpha
		if w < floor {
			w = floor
		}
		converged = false
		for it := 0; it < an.opt.maxInner(); it++ {
			// Job p0's first step is t = floor = L0.
			in := i0
			if p > p0 || it > 0 {
				in = an.interference(a, sc, hp, alpha, w, pt)
			}
			next := base + (p-p0+1)*cOverAlpha + in
			if next <= w+eps {
				converged = true
				break
			}
			w = next
		}
		if !converged {
			return 0, 0, false
		}
		// Response measured from the transaction activation: the job's
		// transaction was released at ϕ + (p−1)T − φ (full offset).
		r := w - (phi + (p-1)*tr.Period - ta.Offset)
		if r > best {
			best = r
			bestJob = int(p)
		}
	}
	return best, bestJob, true
}

// ScenarioCount returns N(τa,b) of Eq. (12): the number of scenario
// vectors the exact analysis must examine for task (a, b) (0-based),
// versus Na+1 for the approximate analysis. The product saturates at
// math.MaxInt — wide systems overflow a machine int long before the
// exact analysis is feasible, and a wrapped negative count would
// nonsense every consumer comparing it to MaxScenarios.
func ScenarioCount(sys *model.System, a, b int) (exact, approximate int) {
	ta := &sys.Transactions[a].Tasks[b]
	interferers := func(i int) int {
		n := 0
		tasks := sys.Transactions[i].Tasks
		for j := range tasks {
			if i == a && j == b {
				continue
			}
			if interferes(ta, &tasks[j]) {
				n++
			}
		}
		return n
	}
	exact = interferers(a) + 1
	approximate = exact
	for i := range sys.Transactions {
		if i == a {
			continue
		}
		n := interferers(i)
		if n <= 1 {
			continue
		}
		if exact > math.MaxInt/n {
			return math.MaxInt, approximate
		}
		exact *= n
	}
	return exact, approximate
}
