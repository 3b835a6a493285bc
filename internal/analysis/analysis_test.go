package analysis

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"hsched/internal/model"
	"hsched/internal/platform"
)

func TestModPos(t *testing.T) {
	cases := []struct{ x, m, want float64 }{
		{0, 50, 0}, {19, 50, 19}, {50, 50, 0}, {69, 50, 19},
		{-5, 50, 45}, {-50, 50, 0}, {-69, 50, 31},
	}
	for _, c := range cases {
		if got := modPos(c.x, c.m); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("modPos(%v, %v) = %v, want %v", c.x, c.m, got, c.want)
		}
	}
}

func TestPhase(t *testing.T) {
	// Eq. 10: ϕ = T − (φk + Jk − φj) mod T, in (0, T].
	cases := []struct{ phiK, jK, phiJ, T, want float64 }{
		{0, 0, 0, 50, 50},  // self, no jitter: the critical job is at 0, ϕ = T
		{5, 19, 5, 50, 31}, // τ1,4 with J = 19
		{0, 0, 5, 50, 5},   // τ1,1 starts, τ1,4 offset 5
		{5, 0, 0, 50, 45},  // τ1,4 starts, τ1,1 offset 0
		{3, 9, 3, 50, 41},  // τ1,2 with J = 9
	}
	for _, c := range cases {
		if got := phase(c.phiK, c.jK, c.phiJ, c.T); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("phase(%v, %v, %v, %v) = %v, want %v", c.phiK, c.jK, c.phiJ, c.T, got, c.want)
		}
	}
}

// TestPhaseProperty: the phase is always in (0, T] and shifting both
// offsets by the same amount (or any offset by a full period) leaves
// it unchanged.
func TestPhaseProperty(t *testing.T) {
	f := func(pk, jk, pj uint16, shift int8) bool {
		T := 50.0
		a, j, b := float64(pk%997)/10, float64(jk%997)/10, float64(pj%997)/10
		ph := phase(a, j, b, T)
		if !(ph > 0 && ph <= T+1e-9) {
			return false
		}
		s := float64(shift)
		if math.Abs(phase(a+s, j, b+s, T)-ph) > 1e-9 {
			return false
		}
		return math.Abs(phase(a+T, j, b, T)-ph) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// single builds a one-platform system of independent single-task
// transactions with the given (period, wcet, priority) triples.
func single(p platform.Params, specs ...[3]float64) *model.System {
	sys := &model.System{Platforms: []platform.Params{p}}
	for _, s := range specs {
		sys.Transactions = append(sys.Transactions, model.Transaction{
			Period: s[0], Deadline: s[0],
			Tasks: []model.Task{{WCET: s[1], BCET: s[1], Priority: int(s[2])}},
		})
	}
	return sys
}

// TestClassicalResponseTimes: on a dedicated platform the analysis
// reproduces textbook fixed-priority response times.
func TestClassicalResponseTimes(t *testing.T) {
	sys := single(platform.Dedicated(), [3]float64{5, 1, 3}, [3]float64{8, 2, 2}, [3]float64{20, 5, 1})
	res, err := Analyze(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// R1 = 1; R2 = 2 + 1 = 3; R3: w = 5 + ⌈w/5⌉ + 2⌈w/8⌉ → 5+1+2=8,
	// w=8: 5+2+2=9, w=9: 5+2+4=11, w=11: 5+3+4=12, w=12: 5+3+4=12.
	want := []float64{1, 3, 12}
	for i, w := range want {
		if got := res.TransactionResponse(i); math.Abs(got-w) > 1e-9 {
			t.Errorf("R%d = %v, want %v", i+1, got, w)
		}
	}
}

// TestScaledPlatform: on (α, Δ, β) = (0.5, 3, 0), every term scales:
// the highest-priority task takes Δ + C/α.
func TestScaledPlatform(t *testing.T) {
	sys := single(platform.Params{Alpha: 0.5, Delta: 3, Beta: 0},
		[3]float64{40, 2, 2}, [3]float64{60, 3, 1})
	res, err := Analyze(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TransactionResponse(0); math.Abs(got-7) > 1e-9 { // 3 + 2/0.5
		t.Errorf("R1 = %v, want 7", got)
	}
	// Low: w = 3 + 6 + ⌈w/40⌉·4 → 13, one interference: 3+6+4 = 13.
	if got := res.TransactionResponse(1); math.Abs(got-13) > 1e-9 {
		t.Errorf("R2 = %v, want 13", got)
	}
}

// TestBlockingTerm: the blocking Ba,b enters the response additively.
func TestBlockingTerm(t *testing.T) {
	sys := single(platform.Dedicated(), [3]float64{10, 1, 1})
	base, err := Analyze(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Transactions[0].Tasks[0].Blocking = 2.5
	blocked, err := Analyze(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := blocked.TransactionResponse(0) - base.TransactionResponse(0); math.Abs(d-2.5) > 1e-9 {
		t.Errorf("blocking added %v, want 2.5", d)
	}
}

// TestOverloadYieldsInf: demand above the platform rate must be
// reported as an unbounded response, not a hang.
func TestOverloadYieldsInf(t *testing.T) {
	sys := single(platform.Params{Alpha: 0.2, Delta: 1, Beta: 0},
		[3]float64{10, 1, 2}, [3]float64{10, 1.5, 1}) // demand 0.25 > 0.2... per-task
	res, err := Analyze(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.TransactionResponse(1), 1) {
		t.Errorf("R2 = %v, want +Inf", res.TransactionResponse(1))
	}
	if res.Schedulable {
		t.Errorf("overloaded system reported schedulable")
	}
	if !res.Converged {
		t.Errorf("overload verdict should be final (converged)")
	}
}

// TestMonotonicity: response times are monotone in WCET, jitter and
// platform delay — the foundations of the holistic iteration's
// convergence argument.
func TestMonotonicity(t *testing.T) {
	base := single(platform.Params{Alpha: 0.5, Delta: 1, Beta: 0},
		[3]float64{20, 2, 2}, [3]float64{50, 4, 1})

	r0, err := AnalyzeStatic(base, Options{})
	if err != nil {
		t.Fatal(err)
	}

	grow := base.Clone()
	grow.Transactions[0].Tasks[0].WCET = 3
	r1, err := AnalyzeStatic(grow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.TransactionResponse(1) < r0.TransactionResponse(1) {
		t.Errorf("R2 decreased when a higher-priority WCET grew")
	}

	jit := base.Clone()
	jit.Transactions[0].Tasks[0].Jitter = 15
	r2, err := AnalyzeStatic(jit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.TransactionResponse(1) < r0.TransactionResponse(1) {
		t.Errorf("R2 decreased when a higher-priority jitter grew")
	}

	slow := base.Clone()
	slow.Platforms[0].Delta = 4
	r3, err := AnalyzeStatic(slow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range slow.Transactions {
		if r3.TransactionResponse(i) < r0.TransactionResponse(i) {
			t.Errorf("R%d decreased when the platform delay grew", i+1)
		}
	}
}

// TestExactNeverAboveApprox: on randomised systems the exact analysis
// is bounded by the approximate one, per Tindell's argument behind
// Eq. 15.
func TestExactNeverAboveApprox(t *testing.T) {
	f := func(c1, c2, c3, p1, p2 uint16) bool {
		T1 := 20 + float64(p1%200)
		T2 := 20 + float64(p2%200)
		sys := &model.System{
			Platforms: []platform.Params{{Alpha: 0.6, Delta: 1, Beta: 0.5}},
			Transactions: []model.Transaction{
				{Period: T1, Deadline: 10 * T1, Tasks: []model.Task{
					{WCET: 0.5 + float64(c1%50)/10, BCET: 0.1, Priority: 3},
					{WCET: 0.5 + float64(c2%50)/10, BCET: 0.1, Priority: 1},
				}},
				{Period: T2, Deadline: 10 * T2, Tasks: []model.Task{
					{WCET: 0.5 + float64(c3%50)/10, BCET: 0.1, Priority: 2},
				}},
			},
		}
		u := sys.Utilization()
		if u[0] >= 0.95 {
			return true // skip near-overload draws
		}
		ex, err := Analyze(sys, Options{Exact: true})
		if err != nil {
			return false
		}
		ap, err := Analyze(sys, Options{})
		if err != nil {
			return false
		}
		for i := range sys.Transactions {
			for j := range sys.Transactions[i].Tasks {
				if ex.Tasks[i][j].Worst > ap.Tasks[i][j].Worst+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTooManyScenarios: the exact analysis refuses combinatorial
// explosions instead of hanging — and instead of wrapping the scenario
// count around to a product it then sweeps in zero steps.
func TestTooManyScenarios(t *testing.T) {
	// 8 transactions × 5 high-priority tasks each interfere with one
	// low-priority victim: 5^8 ≈ 390k scenarios > limit 1000.
	wide := &model.System{Platforms: []platform.Params{platform.Dedicated()}}
	for i := 0; i < 8; i++ {
		tr := model.Transaction{Period: 100, Deadline: 100}
		for j := 0; j < 5; j++ {
			tr.Tasks = append(tr.Tasks, model.Task{WCET: 0.01, BCET: 0.01, Priority: 10})
		}
		wide.Transactions = append(wide.Transactions, tr)
	}
	wide.Transactions = append(wide.Transactions, model.Transaction{
		Period: 100, Deadline: 100,
		Tasks: []model.Task{{WCET: 1, BCET: 1, Priority: 1}},
	})

	cases := []struct {
		name string
		sys  *model.System
		opt  Options
	}{
		{"over-limit", wide, Options{Exact: true, MaxScenarios: 1000}},
		// 4^33 = 2^66 scenarios for the victim: a product that wraps to
		// 0 in a machine int under the largest limit a client can send.
		{"overflow", overflowSystem(), Options{Exact: true, MaxScenarios: math.MaxInt}},
	}
	for _, c := range cases {
		if _, err := Analyze(c.sys, c.opt); !errors.Is(err, ErrTooManyScenarios) {
			t.Errorf("%s: Analyze error %v, want ErrTooManyScenarios", c.name, err)
		}
		if _, err := AnalyzeStatic(c.sys, c.opt); !errors.Is(err, ErrTooManyScenarios) {
			t.Errorf("%s: AnalyzeStatic error %v, want ErrTooManyScenarios", c.name, err)
		}
	}
}

// overflowSystem has 33 transactions of 4 unit tasks on one dedicated
// platform, all at priority 10 except the last task, the victim at
// priority 1: its exact scenario product is 4^33. Its approximate
// bound is 132, one unit of every task.
func overflowSystem() *model.System {
	sys := &model.System{Platforms: []platform.Params{platform.Dedicated()}}
	for i := 0; i < 33; i++ {
		tr := model.Transaction{Period: 1000, Deadline: 1000}
		for j := 0; j < 4; j++ {
			tr.Tasks = append(tr.Tasks, model.Task{WCET: 1, BCET: 1, Priority: 10})
		}
		sys.Transactions = append(sys.Transactions, tr)
	}
	sys.Transactions[32].Tasks[3].Priority = 1
	return sys
}

// TestOffsetBeyondPeriod: offsets larger than the period are legal
// (the paper explicitly allows them); the analysis reduces them for
// phases but measures responses from the true transaction activation.
func TestOffsetBeyondPeriod(t *testing.T) {
	sys := &model.System{
		Platforms: []platform.Params{platform.Dedicated()},
		Transactions: []model.Transaction{
			{Period: 10, Deadline: 100, Tasks: []model.Task{
				{WCET: 1, BCET: 1, Priority: 1, Offset: 25},
			}},
		},
	}
	res, err := AnalyzeStatic(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The task runs alone: completion 1 after activation, activation
	// 25 after the transaction release → R = 26.
	if got := res.TransactionResponse(0); math.Abs(got-26) > 1e-9 {
		t.Errorf("R = %v, want 26", got)
	}
}

// TestReleaseJitterOfFirstTask: external release jitter of the first
// task inflates its own worst case and propagates down the chain.
func TestReleaseJitterOfFirstTask(t *testing.T) {
	sys := &model.System{
		Platforms: []platform.Params{platform.Dedicated()},
		Transactions: []model.Transaction{
			{Period: 20, Deadline: 40, Tasks: []model.Task{
				{WCET: 1, BCET: 1, Priority: 2, Jitter: 5},
				{WCET: 1, BCET: 1, Priority: 1},
			}},
		},
	}
	res, err := Analyze(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First task: jittered by up to 5, runs alone: R = 5 + 1 = 6.
	if got := res.Tasks[0][0].Worst; math.Abs(got-6) > 1e-9 {
		t.Errorf("R1,1 = %v, want 6", got)
	}
	// Second: starts when first ends (≤ 6), runs 1 → R = 7.
	if got := res.Tasks[0][1].Worst; math.Abs(got-7) > 1e-9 {
		t.Errorf("R1,2 = %v, want 7", got)
	}
}

// TestTightBestCaseNeverLooser: the per-run refinement is never below
// the simple bound and never above the worst case.
func TestTightBestCaseNeverLooser(t *testing.T) {
	sys := &model.System{
		Platforms: []platform.Params{{Alpha: 0.5, Delta: 1, Beta: 2}},
		Transactions: []model.Transaction{
			{Period: 100, Deadline: 100, Tasks: []model.Task{
				{WCET: 2, BCET: 1, Priority: 3},
				{WCET: 2, BCET: 1, Priority: 2},
				{WCET: 2, BCET: 1, Priority: 1},
			}},
		},
	}
	_, simple := bestBounds(sys, false)
	_, tight := bestBounds(sys, true)
	for j := range sys.Transactions[0].Tasks {
		if tight[0][j] < simple[0][j]-1e-12 {
			t.Errorf("task %d: tight %v below simple %v", j, tight[0][j], simple[0][j])
		}
	}
	// Three consecutive 1-cycle tasks on one platform: simple grants β
	// per task (3 × max(0, 2−2) = 0), tight grants it once:
	// max(0, 6/0.5... run demand 3 → 3/0.5 − 2 = 4.
	if got := tight[0][2]; math.Abs(got-4) > 1e-12 {
		t.Errorf("tight completion of the run = %v, want 4", got)
	}
	if got := simple[0][2]; got != 0 {
		t.Errorf("simple completion = %v, want 0 (β per task)", got)
	}
}

// TestUnconvergedIsNeverSchedulable: cutting the holistic iteration
// off before the fixed point must not yield a positive verdict — the
// intermediate response times are lower bounds of the final ones.
func TestUnconvergedIsNeverSchedulable(t *testing.T) {
	sys := paperSystem()
	res, err := Analyze(sys, Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatalf("paper example converged in 2 rounds; it needs 5")
	}
	if res.Schedulable {
		t.Errorf("unconverged analysis reported schedulable")
	}
}

// TestValidationPropagates: invalid systems are rejected before any
// computation.
func TestValidationPropagates(t *testing.T) {
	sys := single(platform.Dedicated(), [3]float64{10, 1, 1})
	sys.Transactions[0].Tasks[0].WCET = -1
	if _, err := Analyze(sys, Options{}); err == nil {
		t.Errorf("Analyze accepted an invalid system")
	}
	if _, err := AnalyzeStatic(sys, Options{}); err == nil {
		t.Errorf("AnalyzeStatic accepted an invalid system")
	}
}

// TestAnalyzeDoesNotMutateInput: the caller's system keeps its offsets
// and jitters.
func TestAnalyzeDoesNotMutateInput(t *testing.T) {
	sys := single(platform.Dedicated(), [3]float64{10, 1, 2}, [3]float64{30, 2, 1})
	sys.Transactions[1].Tasks[0].Offset = 3
	before := *sys.Clone()
	if _, err := Analyze(sys, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := range before.Transactions {
		for j := range before.Transactions[i].Tasks {
			b, a := before.Transactions[i].Tasks[j], sys.Transactions[i].Tasks[j]
			if b.Offset != a.Offset || b.Jitter != a.Jitter {
				t.Fatalf("task (%d,%d) mutated: %+v -> %+v", i, j, b, a)
			}
		}
	}
}
