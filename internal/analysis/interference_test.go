package analysis

import (
	"math"
	"testing"

	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/platform"
)

// paperSystem is a local copy of the Table 1 / Table 2 fixture (the
// canonical one lives in internal/experiments, which cannot be
// imported here without a cycle).
func paperSystem() *model.System {
	return &model.System{
		Platforms: []platform.Params{
			{Alpha: 0.4, Delta: 1, Beta: 1},
			{Alpha: 0.4, Delta: 1, Beta: 1},
			{Alpha: 0.2, Delta: 2, Beta: 1},
		},
		Transactions: []model.Transaction{
			{Name: "Gamma1", Period: 50, Deadline: 50, Tasks: []model.Task{
				{Name: "tau1,1", WCET: 1, BCET: 0.8, Priority: 2, Platform: 2},
				{Name: "tau1,2", WCET: 1, BCET: 0.8, Priority: 1, Platform: 0},
				{Name: "tau1,3", WCET: 1, BCET: 0.8, Priority: 1, Platform: 1},
				{Name: "tau1,4", WCET: 1, BCET: 0.8, Priority: 3, Platform: 2},
			}},
			{Name: "Gamma2", Period: 15, Deadline: 15, Tasks: []model.Task{
				{Name: "tau2,1", WCET: 1, BCET: 0.25, Priority: 3, Platform: 0},
			}},
			{Name: "Gamma3", Period: 15, Deadline: 15, Tasks: []model.Task{
				{Name: "tau3,1", WCET: 1, BCET: 0.25, Priority: 3, Platform: 1},
			}},
			{Name: "Gamma4", Period: 70, Deadline: 70, Tasks: []model.Task{
				{Name: "tau4,1", WCET: 7, BCET: 5, Priority: 1, Platform: 2},
			}},
		},
	}
}

// newAnalyzer binds sys to a fresh analyzer with its reduced offsets
// derived: the interference-construction stage on its own, outside
// any engine.
func newAnalyzer(sys *model.System, opt Options) *analyzer {
	an := &analyzer{}
	an.bind(sys, opt)
	an.refreshOffsets()
	return an
}

// newPaperAnalyzer prepares the paper example at iteration 0 of the
// holistic loop: offsets at the φmin values, jitters zero.
func newPaperAnalyzer(t *testing.T) *analyzer {
	t.Helper()
	sys := paperSystem()
	starts, _ := bestBounds(sys, false)
	for i := range sys.Transactions {
		for j := 1; j < len(sys.Transactions[i].Tasks); j++ {
			sys.Transactions[i].Tasks[j].Offset = starts[i][j]
		}
	}
	return newAnalyzer(sys, Options{})
}

// TestHPFiltering pins Eq. 17: only same-platform tasks of greater or
// equal priority interfere.
func TestHPFiltering(t *testing.T) {
	an := newPaperAnalyzer(t)
	// τ1,1 (Π3, p=2): within Γ1 only τ1,4 (Π3, p=3); τ4,1 has p=1.
	hp := an.hpRow(0, 0)
	if len(hp[0]) != 1 || hp[0][0] != 3 {
		t.Errorf("hp_1(τ1,1) = %v, want [3]", hp[0])
	}
	if len(hp[3]) != 0 {
		t.Errorf("hp_4(τ1,1) = %v, want empty (priority 1 < 2)", hp[3])
	}
	// τ1,4 (Π3, p=3): nothing interferes.
	for i, set := range an.hpRow(0, 3) {
		if len(set) != 0 {
			t.Errorf("hp_%d(τ1,4) = %v, want empty", i+1, set)
		}
	}
	// τ1,2 (Π1, p=1): τ2,1 (Π1, p=3) interferes; τ1,3 is on Π2.
	hp = an.hpRow(0, 1)
	if len(hp[1]) != 1 || hp[1][0] != 0 {
		t.Errorf("hp_2(τ1,2) = %v, want [0]", hp[1])
	}
	if len(hp[0]) != 0 {
		t.Errorf("hp_1(τ1,2) = %v, want empty (τ1,3 is on Π2)", hp[0])
	}
}

// TestPhaseKPaperValues pins Eq. 10 at iteration 0.
func TestPhaseKPaperValues(t *testing.T) {
	an := newPaperAnalyzer(t)
	cases := []struct {
		i, k, j int
		want    float64
	}{
		{0, 0, 0, 50}, // self, zero jitter
		{0, 0, 3, 5},  // τ1,1 starts, τ1,4 at offset 5
		{0, 3, 0, 45}, // τ1,4 starts, τ1,1 at offset 0
		{1, 0, 0, 15}, // τ2,1 self
	}
	for _, c := range cases {
		if got := an.phaseK(c.i, c.k, c.j); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("ϕ^%d_{%d,%d} = %v, want %v", c.k+1, c.i+1, c.j+1, got, c.want)
		}
	}
}

// TestWkPaperValues pins Eq. 11: the interference τ2,1 exerts on τ1,2
// (C/α = 1/0.4 = 2.5) as a function of the busy-period length.
func TestWkPaperValues(t *testing.T) {
	an := newPaperAnalyzer(t)
	hp := an.hpRow(0, 1)
	hp21 := hp[1] // tasks of Γ2 interfering with τ1,2
	var pt phaseTable
	an.buildPhaseTable(&pt, 0, 1, hp)
	alpha := 0.4
	cases := []struct{ t, want float64 }{
		{0.5, 2.5},  // one pending job (ϕ = 15: released at t=0)
		{6, 2.5},    // still one
		{15.5, 5},   // second period began
		{30.5, 7.5}, // third
	}
	for _, c := range cases {
		if got := pt.wk(&an.sys.Transactions[1], 1, 0, hp21, alpha, c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("W^1_2(τ1,2, %v) = %v, want %v", c.t, got, c.want)
		}
	}
}

// TestWstarIsMaxOfWk: on a transaction with two interfering tasks, W*
// is the pointwise max over both candidate initiators.
func TestWstarIsMaxOfWk(t *testing.T) {
	sys := paperSystem()
	// Give Γ1 two tasks on Π3 with priority ≥ τ4,1's (p=1): τ1,1 (p=2)
	// and τ1,4 (p=3) both interfere with τ4,1.
	an := newAnalyzer(sys, Options{})
	hp := an.hpRow(3, 0) // interferers of τ4,1
	if len(hp[0]) != 2 {
		t.Fatalf("hp_1(τ4,1) = %v, want two tasks", hp[0])
	}
	var pt phaseTable
	an.buildPhaseTable(&pt, 3, 0, hp)
	tr := &an.sys.Transactions[0]
	alpha := 0.2
	for _, x := range []float64{1, 5, 12, 26, 51} {
		w0 := pt.wk(tr, 0, hp[0][0], hp[0], alpha, x)
		w1 := pt.wk(tr, 0, hp[0][1], hp[0], alpha, x)
		star := pt.wstar(tr, 0, hp[0], alpha, x)
		if got := math.Max(w0, w1); math.Abs(star-got) > 1e-12 {
			t.Errorf("W*(t=%v) = %v, want max(%v, %v)", x, star, w0, w1)
		}
	}
}

// TestExactReproducesTable3: on the paper example the exact analysis
// coincides with the approximate one (every per-transaction candidate
// set has at most one element besides the task under analysis), so it
// must also converge to R(Γ1) = 31.
func TestExactReproducesTable3(t *testing.T) {
	res, err := Analyze(paperSystem(), Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TransactionResponse(0); math.Abs(got-31) > 1e-9 {
		t.Errorf("exact R(Γ1) = %v, want 31", got)
	}
	want := []float64{31, 3.5, 3.5, 52}
	for i, w := range want {
		if got := res.TransactionResponse(i); math.Abs(got-w) > 1e-9 {
			t.Errorf("exact R(Γ%d) = %v, want %v", i+1, got, w)
		}
	}
}

// benchShape is one generator configuration of the benchmark's
// analysis workloads (perfbench/workload.go), drawn per seed.
type benchShape struct {
	Name   string
	Config func(seed int64) gen.Config
}

// benchShapes are the admit-edit, exact-cold and assign-search shapes.
// The phase-table checks here and the golden corpus (through
// export_test.go) draw their systems from them.
var benchShapes = []benchShape{
	{Name: "admit-edit", Config: func(seed int64) gen.Config {
		return gen.Config{Seed: seed, Platforms: 3, Transactions: 8 + int(seed%5), ChainLen: 4,
			PeriodMin: 20, PeriodMax: 400, Utilization: 0.4, AlphaMin: 0.4, AlphaMax: 0.9}
	}},
	{Name: "exact-cold", Config: func(seed int64) gen.Config {
		return gen.Config{Seed: seed, Platforms: 1, Transactions: 4, ChainLen: 4,
			PeriodMin: 20, PeriodMax: 400, Utilization: 0.35, AlphaMin: 0.5, AlphaMax: 0.9,
			RandomPriorities: true}
	}},
	{Name: "assign-search", Config: func(seed int64) gen.Config {
		return gen.Config{Seed: seed, Platforms: 2, Transactions: 4, ChainLen: 3,
			PeriodMin: 20, PeriodMax: 400, Utilization: 0.4, AlphaMin: 0.4, AlphaMax: 0.9}
	}},
}

// phaseTableSystems draws the table-check population: the paper
// system plus a few systems of each benchmark shape.
func phaseTableSystems(t *testing.T) []*model.System {
	t.Helper()
	out := []*model.System{paperSystem()}
	for seed := int64(1); seed <= 4; seed++ {
		for _, sh := range benchShapes {
			sys, err := gen.System(sh.Config(seed))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sys)
		}
	}
	return out
}

// TestPhaseTableMatchesPhase: after every holistic round, each entry
// of every task's phase table equals ϕ^k_{i,j} (Eq. 10) and
// ⌊(Ji,j + ϕ)/Ti⌋ computed directly from that round's reduced offsets
// and jitters, bit for bit — including the Γa row of the task under
// analysis itself as initiator (k = b). Every entry of the L0 row
// equals wk, or wstar, evaluated at L0 = Δ + B + C/α, bit for bit.
func TestPhaseTableMatchesPhase(t *testing.T) {
	selfRows := 0
	for n, sys := range phaseTableSystems(t) {
		var e *Engine
		var pt phaseTable
		check := func(iter int, _ *Result) {
			an := &e.an
			eps := an.opt.eps()
			for a := range an.sys.Transactions {
				for b := range an.sys.Transactions[a].Tasks {
					hp := an.hpRow(a, b)
					an.buildPhaseTable(&pt, a, b, hp)
					ta := &an.sys.Transactions[a].Tasks[b]
					pl := an.sys.Platforms[ta.Platform]
					if l0 := pl.Delta + ta.Blocking + ta.WCET/pl.Alpha; math.Float64bits(pt.l0) != math.Float64bits(l0) {
						t.Fatalf("system %d round %d τ%d,%d: L0 = %v, want %v", n, iter, a+1, b+1, pt.l0, l0)
					}
					for i, hpI := range hp {
						if len(hpI) == 0 {
							continue
						}
						tr := &an.sys.Transactions[i]
						reduced := an.slabs[i].reduced
						ks := hpI
						if i == a {
							ks = append(append([]int(nil), hpI...), b)
							selfRows++
						}
						w0 := pt.w0[pt.row0[i]:]
						if want := pt.wstar(tr, i, hpI, pl.Alpha, pt.l0); math.Float64bits(w0[0]) != math.Float64bits(want) {
							t.Fatalf("system %d round %d τ%d,%d: W*_%d(L0) = %v, want %v", n, iter, a+1, b+1, i, w0[0], want)
						}
						for _, k := range ks {
							if want := pt.wk(tr, i, k, hpI, pl.Alpha, pt.l0); math.Float64bits(w0[1+k]) != math.Float64bits(want) {
								t.Fatalf("system %d round %d τ%d,%d: W^%d_%d(L0) = %v, want %v", n, iter, a+1, b+1, k, i, w0[1+k], want)
							}
							off := pt.row[i] + k*len(hpI)
							for m, j := range hpI {
								phi := phase(reduced[k], tr.Tasks[k].Jitter, reduced[j], tr.Period)
								fl := floorE((tr.Tasks[j].Jitter+phi)/tr.Period, eps)
								if math.Float64bits(pt.phi[off+m]) != math.Float64bits(phi) ||
									math.Float64bits(pt.fl[off+m]) != math.Float64bits(fl) {
									t.Fatalf("system %d round %d τ%d,%d: entry (i=%d, k=%d, j=%d) = (%v, %v), want (%v, %v)",
										n, iter, a+1, b+1, i, k, j, pt.phi[off+m], pt.fl[off+m], phi, fl)
								}
							}
						}
					}
				}
			}
		}
		e = NewEngine(Options{Workers: 1, MaxIterations: 32, Recorder: check})
		if _, err := e.Analyze(sys); err != nil {
			t.Fatal(err)
		}
	}
	if selfRows == 0 {
		t.Fatal("no Γa row with k = b was checked")
	}
}

// TestPhaseTableZeroAllocs: rebuilding the phase table on a warmed
// scratch allocates nothing — the per-call rebuild rides on the
// pooled taskScratch buffers.
func TestPhaseTableZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations; alloc counts are meaningless")
	}
	sys := phaseTableSystems(t)[1]
	an := newAnalyzer(sys, Options{})
	var ts taskScratch
	build := func() {
		for a := range sys.Transactions {
			for b := range sys.Transactions[a].Tasks {
				an.buildPhaseTable(&ts.phases, a, b, an.hpRow(a, b))
			}
		}
	}
	build()
	if allocs := testing.AllocsPerRun(100, build); allocs != 0 {
		t.Errorf("phase table rebuild allocates %v per run, want 0", allocs)
	}
}
