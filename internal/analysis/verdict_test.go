package analysis_test

import (
	"math"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/platform"
)

// verdictSample draws seeds 1–200 at utilisations 0.45 and 0.6: two
// platforms, four transactions of up to three tasks, random
// priorities.
func verdictSample(t *testing.T) []*model.System {
	t.Helper()
	var out []*model.System
	for _, u := range []float64{0.45, 0.6} {
		for seed := int64(1); seed <= 200; seed++ {
			sys, err := gen.System(gen.Config{
				Seed:      seed,
				Platforms: 2, Transactions: 4, ChainLen: 3,
				PeriodMin: 10, PeriodMax: 200,
				Utilization: u,
				AlphaMin:    0.4, AlphaMax: 0.9,
				RandomPriorities: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sys)
		}
	}
	return out
}

// TestVerdictsNeverReadLowerBounds: the bounds of a result that
// stopped (under StopAtDeadlineMiss or at a goal) or was cut by
// MaxIterations are lower bounds of the fixed point, so no verdict may
// be read off them: MeetsDeadline(i) implies that the fixed point
// meets transaction i's deadline, and Schedulable is exactly every
// transaction meeting. A bound above the deadline is final in any
// round, since responses never decrease: Misses(i) implies that the
// fixed point misses too.
func TestVerdictsNeverReadLowerBounds(t *testing.T) {
	base := analysis.Options{Workers: 1, MaxIterations: 60, MaxInner: 50_000}
	stopAll := base
	stopAll.StopAtDeadlineMiss = true
	cut := base
	cut.MaxIterations = 2
	counts := map[string]int{}
	for k, sys := range verdictSample(t) {
		analyze := func(opt analysis.Options) *analysis.Result {
			t.Helper()
			res, err := analysis.NewEngine(opt).Analyze(sys)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		fixed := analyze(base)
		check := func(kind string, opt analysis.Options) {
			t.Helper()
			res := analyze(opt)
			if (kind == "cut" && !res.Converged) || res.StoppedAtGoal {
				counts[kind]++
			}
			meets := true
			for i := range res.Tasks {
				if res.MeetsDeadline(i) && !fixed.MeetsDeadline(i) {
					t.Fatalf("system %d, %s (%+v): Γ%d meets its deadline at %v, the fixed point does not (%v)",
						k, kind, opt, i+1, res.TransactionResponse(i), fixed.TransactionResponse(i))
				}
				if res.Misses(i) && (!fixed.Misses(i) || res.MeetsDeadline(i)) {
					t.Fatalf("system %d, %s (%+v): Γ%d misses its deadline at %v, the fixed point reads %v",
						k, kind, opt, i+1, res.TransactionResponse(i), fixed.TransactionResponse(i))
				}
				meets = meets && res.MeetsDeadline(i)
			}
			if res.Schedulable != meets {
				t.Fatalf("system %d, %s: Schedulable %v, every transaction meets %v", k, kind, res.Schedulable, meets)
			}
		}
		check("stop", stopAll)
		for g := 1; g <= len(sys.Transactions); g++ {
			check("goal", withGoal(base, g))
		}
		check("cut", cut)
	}
	for _, kind := range []string{"stop", "goal", "cut"} {
		if counts[kind] == 0 {
			t.Fatalf("no %s result in the sample: the test is vacuous", kind)
		}
	}
	t.Logf("lower-bound results: %v", counts)
}

// TestUnboundedExitProvesNothing: the iteration ends at the first round
// with an unbounded response, before the other bounds reach the fixed
// point. Here Γ1's first task overloads its platform, so the jitter of
// its second task, and with it the interference Γ2 suffers on their
// shared platform, is about to become unbounded: Γ2's finite bound at
// the exit proves nothing.
func TestUnboundedExitProvesNothing(t *testing.T) {
	sys := &model.System{
		Platforms: []platform.Params{{Alpha: 0.5, Delta: 1, Beta: 1}, {Alpha: 1}},
		Transactions: []model.Transaction{
			{Name: "Gamma1", Period: 10, Deadline: 100, Tasks: []model.Task{
				{WCET: 8, BCET: 4, Priority: 1, Platform: 0},
				{WCET: 1, BCET: 1, Priority: 2, Platform: 1},
			}},
			{Name: "Gamma2", Period: 20, Deadline: 20, Tasks: []model.Task{
				{WCET: 2, BCET: 1, Priority: 1, Platform: 1},
			}},
		},
	}
	res, err := analysis.Analyze(sys, analysis.Options{MaxInner: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if r := res.TransactionResponse(1); !res.Converged || res.StoppedAtGoal || math.IsInf(r, 1) || r > 20 {
		t.Fatalf("converged %v, stopped %v, R(Γ2) = %v: want the unbounded exit with Γ2 under its deadline",
			res.Converged, res.StoppedAtGoal, r)
	}
	if res.MeetsDeadline(1) || res.Misses(1) || res.Schedulable {
		t.Fatalf("Γ2 meets %v, misses %v, schedulable %v at the unbounded exit; want unproven",
			res.MeetsDeadline(1), res.Misses(1), res.Schedulable)
	}
}
