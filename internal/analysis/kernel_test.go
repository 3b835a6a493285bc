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

// kernelTally counts what a differential check covered.
type kernelTally struct {
	approx, exact, singles, multi, diverged int
}

// maxDiffScenarios caps the exact scenarios enumerated per task: the
// shapes' largest spaces are a few thousand vectors, so the cap only
// guards against a generator change blowing the test's runtime up.
const maxDiffScenarios = 1 << 14

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
			for _, sc := range an.approxScenarios(a, b, hp, &ts) {
				compare(a, b, sc, hp, alpha)
				tally.approx++
			}
			axes, aAxis, count, err := an.buildAxes(a, b, hp, &ts)
			if err != nil || count > maxDiffScenarios {
				t.Fatalf("%s τ%d,%d: %d exact scenarios (%v), above the test's cap", label, a+1, b+1, count, err)
			}
			for _, sc := range an.materialiseScenarios(axes, aAxis, count, &ts) {
				compare(a, b, sc, hp, alpha)
				tally.exact++
			}
		}
	}
}

// TestScenarioResponseMatchesReference: after every holistic round,
// the kernel's (r, job, ok) equals the reference's bit for bit on every
// approximate and every exact scenario of every task — over the paper
// system and 16 seeds of each benchmark shape, once under the shape's
// options and once with a MaxInner so small that fixed points fail.
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
				checkKernel(t, &e.an, fmt.Sprintf("run %d round %d", n, iter), tl)
			}
			e = NewEngine(opt)
			if _, err := e.Analyze(r.sys); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("default MaxInner: %+v; MaxInner 3: %+v", tally, starved)
	if tally.singles == 0 || tally.multi == 0 || tally.exact == 0 {
		t.Fatalf("coverage: %+v, want single-job, multi-job and exact scenarios", tally)
	}
	if starved.diverged == 0 || starved.singles+starved.multi == 0 {
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
