package analysis

import (
	"context"
	"fmt"
	"math"
	"testing"

	"hsched/internal/gen"
	"hsched/internal/model"
)

// shapeSystems draws seeds 1..n of one benchmark shape.
func shapeSystems(tb testing.TB, sh benchShape, n int) []*model.System {
	tb.Helper()
	out := make([]*model.System, 0, n)
	for seed := int64(1); seed <= int64(n); seed++ {
		sys, err := gen.System(sh.Config(seed))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, sys)
	}
	return out
}

// shapeOptions are the options a benchmark shape is analysed under:
// exact-cold runs the exact sweep with the benchmark's early stop on a
// deadline miss, the other shapes the approximate analysis.
func shapeOptions(sh benchShape, workers int) Options {
	exact := sh.Name == "exact-cold"
	return Options{Workers: workers, Exact: exact, StopAtDeadlineMiss: exact}
}

// analyzeShape analyses every system on e and returns the summed
// Result.InterferenceEvals.
func analyzeShape(tb testing.TB, e *Engine, systems []*model.System) int64 {
	tb.Helper()
	total := int64(0)
	for _, sys := range systems {
		res, err := e.Analyze(sys)
		if err != nil {
			tb.Fatal(err)
		}
		total += res.InterferenceEvals
	}
	return total
}

// TestInterferenceEvalsPinned locks Result.InterferenceEvals as a
// deterministic work count of the analysis kernel: the W^k_i
// evaluations over seeds 1..8 of each benchmark shape, the same for a
// sequential engine and a round fanned out over workers. The exact
// values are a work gate: a change that moves them fails here even
// when its results stay bit-identical. The kernel without the L0 row
// and the single-job shortcut spent 17 576, 18 772 and 1 939.
func TestInterferenceEvalsPinned(t *testing.T) {
	want := map[string]int64{"admit-edit": 8935, "exact-cold": 9194, "assign-search": 1009}
	for _, sh := range benchShapes {
		systems := shapeSystems(t, sh, 8)
		for _, workers := range []int{1, 4} {
			got := analyzeShape(t, NewEngine(shapeOptions(sh, workers)), systems)
			if got != want[sh.Name] {
				t.Errorf("%s workers=%d: %d interference evaluations, want %d", sh.Name, workers, got, want[sh.Name])
			}
		}
	}
}

// BenchmarkAnalyzeShapes analyses seeds 1..64 of each benchmark shape
// per op on one sequential engine, reporting the kernel's W^k_i
// evaluations per op beside the time.
func BenchmarkAnalyzeShapes(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.Name, func(b *testing.B) {
			systems := shapeSystems(b, sh, 64)
			e := NewEngine(shapeOptions(sh, 1))
			var evals int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evals = analyzeShape(b, e, systems)
			}
			b.ReportMetric(float64(evals), "interference-evals/op")
		})
	}
}

// TestExactResponseTimeZeroAllocs: on a warmed task scratch, the exact
// response time of every task of an exact-cold system allocates
// nothing — the sweep's running-best vector rides on the scratch like
// the cursor, and storeSeed copies it into a slab slot of the same
// length.
func TestExactResponseTimeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations; alloc counts are meaningless")
	}
	sys := shapeSystems(t, benchShapes[1], 1)[0]
	an := newAnalyzer(sys, Options{Exact: true})
	var ts taskScratch
	ctx := context.Background()
	pass := func() {
		for a := range sys.Transactions {
			for b := range sys.Transactions[a].Tasks {
				if _, _, _, err := an.responseTime(ctx, a, b, &ts); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Errorf("exact response times allocate %v per pass, want 0", allocs)
	}
}

// refScenarioResponse is scenarioResponse as it stood before the L0
// row and the single-job shortcut: every step sums interference
// afresh. It is the differential reference for the kernel; singles
// counts the scenarios whose job range is the single job p0.
func refScenarioResponse(an *analyzer, a, b int, sc scenario, hp [][]int, alpha float64, pt *phaseTable, singles *int) (float64, int, bool) {
	tr := &an.sys.Transactions[a]
	ta := &tr.Tasks[b]
	eps := an.opt.eps()
	delta := an.sys.Platforms[ta.Platform].Delta
	cOverAlpha := ta.WCET / alpha
	base := delta + ta.Blocking

	phi := an.phaseK(a, sc.c, b)
	p0 := 1 - floorE((ta.Jitter+phi)/tr.Period, eps)

	// Busy-period length L.
	L := base + cOverAlpha
	converged := false
	for it := 0; it < an.opt.maxInner(); it++ {
		jobs := ceilE((L-phi)/tr.Period, eps) - p0 + 1
		if jobs < 0 {
			jobs = 0
		}
		next := base + jobs*cOverAlpha + an.interference(a, sc, hp, alpha, L, pt)
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
	if pL == p0 {
		*singles++
	}

	best := 0.0
	bestJob := int(p0)
	w := 0.0
	for p := p0; p <= pL; p++ {
		floor := base + (p-p0+1)*cOverAlpha
		if w < floor {
			w = floor
		}
		converged = false
		for it := 0; it < an.opt.maxInner(); it++ {
			next := base + (p-p0+1)*cOverAlpha + an.interference(a, sc, hp, alpha, w, pt)
			if next <= w+eps {
				converged = true
				break
			}
			w = next
		}
		if !converged {
			return 0, 0, false
		}
		r := w - (phi + (p-1)*tr.Period - ta.Offset)
		if r > best {
			best = r
			bestJob = int(p)
		}
	}
	return best, bestJob, true
}

// kernelTally counts what a differential check covered: scenarios,
// and (sweeps) the task results checked against the naive sweep.
type kernelTally struct {
	approx, exact, singles, multi, diverged, sweeps int
}

// maxDiffScenarios caps the exact scenarios enumerated per task: the
// largest spaces the tests sweep are exactHeavySystem(5, 6)'s 7776
// vectors, so the cap only guards against a generator change blowing
// the test's runtime up.
const maxDiffScenarios = 1 << 14

// candScenarios lists the approximate scenarios of τa,b (Sec. 3.1.2):
// one per candidate initiator c ∈ hp_a(τa,b) ∪ {τa,b}, in the order
// the analysis evaluates them.
func candScenarios(a, b int, hp [][]int) []scenario {
	var out []scenario
	for _, c := range append(append([]int(nil), hp[a]...), b) {
		out = append(out, scenario{c: c})
	}
	return out
}

// exactScenarios lists every exact scenario vector of τa,b (Eq. 12) in
// cursor order, each with its own ν backing.
func exactScenarios(an *analyzer, a, b int, hp [][]int, ts *taskScratch) ([]scenario, error) {
	axes, aAxis, count, err := an.buildAxes(a, b, hp, ts)
	if err != nil {
		return nil, err
	}
	if count > maxDiffScenarios {
		return nil, fmt.Errorf("%d exact scenarios, above the test's cap", count)
	}
	pick, nu := ts.pick[:len(axes)], ts.nu[:len(axes)]
	cursorSeek(axes, pick, nu, 0)
	out := make([]scenario, 0, count)
	for idx := 0; idx < count; idx++ {
		out = append(out, scenario{c: nu[aAxis].k, nu: append([]initiator(nil), nu...)})
		cursorNext(axes, pick, nu)
	}
	return out, nil
}

// sweepMismatch is the naive reference of the per-task sweep: for
// every task of e's current round it evaluates refScenarioResponse on
// every scenario of the task's full list — the exact product, or the
// approximate candidates — keeps the first strict maximum (+Inf at the
// first divergence, or when the task is overloaded) and compares it
// with the round's TaskResult: Worst bit for bit, CriticalInitiator and
// CriticalJob exactly. It returns how many tasks it checked. The
// engine's inputs must still be those of the round, as they are inside
// a Recorder callback or after a static pass.
func sweepMismatch(e *Engine) (int, error) {
	an := &e.an
	var ts taskScratch
	singles := 0
	checked := 0
	for a := range an.sys.Transactions {
		for b := range an.sys.Transactions[a].Tasks {
			want, crit := math.Inf(1), unboundedCritical
			if !an.slabs[a].overload[b] {
				hp := an.hpRow(a, b)
				alpha := an.sys.Platforms[an.sys.Transactions[a].Tasks[b].Platform].Alpha
				scenarios := candScenarios(a, b, hp)
				if an.opt.Exact {
					exact, err := exactScenarios(an, a, b, hp, &ts)
					if err != nil {
						return checked, fmt.Errorf("τ%d,%d: %v", a+1, b+1, err)
					}
					scenarios = exact
				}
				an.buildPhaseTable(&ts.phases, a, b, hp)
				want, crit = 0, critical{initiator: b}
				for _, sc := range scenarios {
					r, p, ok := refScenarioResponse(an, a, b, sc, hp, alpha, &ts.phases, &singles)
					if !ok {
						want, crit = math.Inf(1), unboundedCritical
						break
					}
					if r > want {
						want, crit = r, critical{initiator: sc.c, job: p}
					}
				}
			}
			got := an.slabs[a].round[b]
			if math.Float64bits(got.Worst) != math.Float64bits(want) ||
				got.CriticalInitiator != crit.initiator || got.CriticalJob != crit.job {
				return checked, fmt.Errorf("τ%d,%d: got (R=%v, c=%d, p=%d), naive sweep gives (R=%v, c=%d, p=%d)",
					a+1, b+1, got.Worst, got.CriticalInitiator, got.CriticalJob, want, crit.initiator, crit.job)
			}
			checked++
		}
	}
	return checked, nil
}

// checkSweep fails tb unless sweepMismatch finds e's current round
// equal to the naive sweep.
func checkSweep(tb testing.TB, e *Engine, label string) int {
	tb.Helper()
	n, err := sweepMismatch(e)
	if err != nil {
		tb.Fatalf("%s: %v", label, err)
	}
	return n
}

// newCheckedEngine returns an engine whose Recorder (opt's own is
// replaced) runs checkSweep after every holistic round, so every
// round's results — swept, round-copied or replayed — are held to the
// naive sweep.
func newCheckedEngine(tb testing.TB, opt Options) *Engine {
	var e *Engine
	opt.Recorder = func(iter int, _ *Result) {
		checkSweep(tb, e, fmt.Sprintf("round %d", iter))
	}
	e = NewEngine(opt)
	return e
}

// checkKernel compares scenarioResponse with refScenarioResponse, bit
// for bit in (r, job, ok), on every approximate scenario and every
// exact scenario of every task of an's current state.
func checkKernel(t *testing.T, an *analyzer, label string, tally *kernelTally) {
	t.Helper()
	var ts taskScratch
	compare := func(a, b int, sc scenario, hp [][]int, alpha float64) {
		r, p, ok := an.scenarioResponse(a, b, sc, hp, alpha, &ts.phases)
		singles := tally.singles
		wr, wp, wok := refScenarioResponse(an, a, b, sc, hp, alpha, &ts.phases, &tally.singles)
		if math.Float64bits(r) != math.Float64bits(wr) || p != wp || ok != wok {
			t.Fatalf("%s τ%d,%d scenario (c=%d, ν=%v): got (%v, %d, %v), want (%v, %d, %v)",
				label, a+1, b+1, sc.c, sc.nu, r, p, ok, wr, wp, wok)
		}
		switch {
		case !wok:
			tally.diverged++
		case tally.singles == singles:
			tally.multi++
		}
	}
	for a := range an.sys.Transactions {
		for b := range an.sys.Transactions[a].Tasks {
			if an.slabs[a].overload[b] {
				continue
			}
			hp := an.hpRow(a, b)
			alpha := an.sys.Platforms[an.sys.Transactions[a].Tasks[b].Platform].Alpha
			an.buildPhaseTable(&ts.phases, a, b, hp)
			for _, sc := range candScenarios(a, b, hp) {
				compare(a, b, sc, hp, alpha)
				tally.approx++
			}
			exact, err := exactScenarios(an, a, b, hp, &ts)
			if err != nil {
				t.Fatalf("%s τ%d,%d: %v", label, a+1, b+1, err)
			}
			for _, sc := range exact {
				compare(a, b, sc, hp, alpha)
				tally.exact++
			}
		}
	}
}

// TestScenarioResponseMatchesReference: after every holistic round,
// the kernel's (r, job, ok) equals the reference's bit for bit on every
// approximate and every exact scenario of every task, and every task's
// result equals the naive sweep's first maximum — over the paper system
// (approximate and exact) and 16 seeds of each benchmark shape, once
// under the shape's options and once with a MaxInner so small that
// fixed points fail.
func TestScenarioResponseMatchesReference(t *testing.T) {
	type run struct {
		sys *model.System
		opt Options
	}
	runs := []run{{paperSystem(), Options{}}, {paperSystem(), Options{Exact: true}}}
	for _, sh := range benchShapes {
		for _, sys := range shapeSystems(t, sh, 16) {
			runs = append(runs, run{sys, shapeOptions(sh, 1)})
		}
	}
	var tally, starved kernelTally
	for n, r := range runs {
		for _, maxInner := range []int{0, 3} {
			opt := r.opt
			opt.Workers, opt.MaxIterations, opt.MaxInner = 1, 32, maxInner
			tl := &tally
			if maxInner != 0 {
				tl = &starved
			}
			var e *Engine
			opt.Recorder = func(iter int, _ *Result) {
				label := fmt.Sprintf("run %d MaxInner %d round %d", n, maxInner, iter)
				checkKernel(t, &e.an, label, tl)
				tl.sweeps += checkSweep(t, e, label)
			}
			e = NewEngine(opt)
			if _, err := e.Analyze(r.sys); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("default MaxInner: %+v; MaxInner 3: %+v", tally, starved)
	if tally.singles == 0 || tally.multi == 0 || tally.exact == 0 || tally.sweeps == 0 {
		t.Fatalf("coverage: %+v, want single-job, multi-job and exact scenarios", tally)
	}
	if starved.diverged == 0 || starved.singles+starved.multi == 0 || starved.sweeps == 0 {
		t.Fatalf("MaxInner 3 coverage: %+v, want converging and diverging scenarios", starved)
	}
}

// TestScenarioResponseClampedFirstStep: a negative jitter (which
// validation rejects, so only a hand-built state reaches it) raises p0
// above the last job the first busy-period step reaches, so that
// step's job count clamps from a negative to 0. The shortcut must not
// take such a busy period for a single-job one: the kernel still
// matches the reference.
func TestScenarioResponseClampedFirstStep(t *testing.T) {
	an := newPaperAnalyzer(t)
	eps := an.opt.eps()
	for a := range an.sys.Transactions {
		tr := &an.sys.Transactions[a]
		for b := range tr.Tasks {
			tr.Tasks[b].Jitter = -3 * tr.Period
		}
	}
	clamped := 0
	for a := range an.sys.Transactions {
		tr := &an.sys.Transactions[a]
		for b := range tr.Tasks {
			ta := &tr.Tasks[b]
			alpha := an.sys.Platforms[ta.Platform].Alpha
			l0 := an.sys.Platforms[ta.Platform].Delta + ta.Blocking + ta.WCET/alpha
			for _, c := range append(append([]int(nil), an.hpRow(a, b)[a]...), b) {
				phi := an.phaseK(a, c, b)
				p0 := 1 - floorE((ta.Jitter+phi)/tr.Period, eps)
				if ceilE((l0-phi)/tr.Period, eps)-p0+1 < 0 {
					clamped++
				}
			}
		}
	}
	if clamped == 0 {
		t.Fatal("no scenario's first step clamps its job count")
	}
	var tally kernelTally
	checkKernel(t, an, "negative jitter", &tally)
	t.Logf("%d clamped first steps; %+v", clamped, tally)
}
