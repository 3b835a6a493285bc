package analysis_test

import (
	"math"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/experiments"
	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/platform"
)

// sweepSystems draws the bit-identity population: single-platform
// systems (every task interferes with every lower-priority one, the
// regime where the scenario product of Eq. 12 actually grows) plus a
// couple of multi-platform chains, spanning schedulable and
// unschedulable draws.
func sweepSystems(t testing.TB) []*model.System {
	t.Helper()
	var out []*model.System
	for k := 0; k < 4; k++ {
		sys, err := gen.System(gen.Config{
			Seed:      int64(9000 + k),
			Platforms: 1, Transactions: 3, ChainLen: 4,
			PeriodMin: 20, PeriodMax: 200,
			Utilization: 0.4 + 0.1*float64(k%2),
			AlphaMin:    0.5, AlphaMax: 0.9,
			RandomPriorities: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sys)
	}
	for k := 0; k < 2; k++ {
		sys, err := gen.System(gen.Config{
			Seed:      int64(9100 + k),
			Platforms: 2, Transactions: 3, ChainLen: 3,
			PeriodMin: 20, PeriodMax: 300,
			Utilization: 0.45,
			AlphaMin:    0.4, AlphaMax: 0.9,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sys)
	}
	return out
}

// exactHeavySystem builds a single dedicated platform carrying
// `transactions` chains of `chainLen` tasks with per-transaction
// descending priorities: every task of every higher-indexed
// transaction interferes with every task of the lower-priority ones,
// so the lowest-priority tasks face chainLen^transactions exact
// scenario vectors — the worst-case shape of Eq. 12. Utilisation is
// kept low so each scenario's fixed point converges in a few steps and
// the cost is the enumeration itself.
func exactHeavySystem(transactions, chainLen int) *model.System {
	sys := &model.System{Platforms: []platform.Params{platform.Dedicated()}}
	for i := 0; i < transactions; i++ {
		tr := model.Transaction{
			Period:   1000 + 40*float64(i),
			Deadline: 4000,
		}
		for j := 0; j < chainLen; j++ {
			tr.Tasks = append(tr.Tasks, model.Task{
				WCET: 1 + 0.1*float64(j), BCET: 0.5,
				Priority: transactions - i,
			})
		}
		sys.Transactions = append(sys.Transactions, tr)
	}
	return sys
}

// TestExactSweepBitIdentity is the sweep's metamorphic contract:
// after every holistic round, every task's bound and critical scenario
// equal the first maximum of a naive sweep that evaluates each
// scenario (NewCheckedEngine), and the whole result — task bounds,
// critical scenarios, iteration counts and verdicts — is bit-identical
// for every worker count.
func TestExactSweepBitIdentity(t *testing.T) {
	for si, sys := range sweepSystems(t) {
		var seq *analysis.Result
		for _, workers := range []int{1, 4, 8} {
			opt := analysis.Options{Exact: true, Workers: workers, MaxIterations: 40}
			got, err := analysis.NewCheckedEngine(t, opt).Analyze(sys)
			if err != nil {
				t.Fatalf("system %d workers=%d: %v", si, workers, err)
			}
			if seq == nil {
				seq = got
			} else if !resultsIdentical(seq, got) {
				t.Fatalf("system %d workers=%d: diverged from the sequential engine", si, workers)
			}
		}
	}
}

// TestExactSweepBitIdentityHeavy covers the regime the small random
// systems cannot reach: a sweep large enough (6^5 = 7776 scenario
// vectors on its costliest tasks) for the subtree jumps to skip deep
// subtrees, with the round's tasks fanned out across workers. One
// static pass (the sweep itself, no holistic iteration on top) keeps
// the -race run short.
func TestExactSweepBitIdentityHeavy(t *testing.T) {
	sys := exactHeavySystem(5, 6)
	var seq *analysis.Result
	for _, workers := range []int{1, 4, 8} {
		eng := analysis.NewEngine(analysis.Options{Exact: true, Workers: workers})
		got, err := eng.AnalyzeStatic(sys)
		if err != nil {
			t.Fatal(err)
		}
		analysis.CheckSweep(t, eng)
		if seq == nil {
			seq = got
		} else if !resultsIdentical(seq, got) {
			t.Fatalf("workers=%d: heavy sweep diverged from the sequential engine", workers)
		}
	}
}

// TestExactSweepPrunesPaperExample locks the admissible prune engaging
// on the paper's own Table 3 example: even its small scenario sets
// contain dominated vectors the bound discards, and every round still
// equals the naive sweep.
func TestExactSweepPrunesPaperExample(t *testing.T) {
	sys := experiments.PaperSystem()
	res, err := analysis.NewCheckedEngine(t, analysis.Options{Exact: true, Workers: 1}).Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScenariosPruned <= 0 {
		t.Fatalf("exact analysis of the paper example pruned %d scenarios, want > 0", res.ScenariosPruned)
	}

	// And the accelerated sweep still reproduces Table 3's fixed point.
	if r := res.TransactionResponse(0); math.Abs(r-31) > 1e-6 {
		t.Fatalf("R(Γ1) = %v under the pruned sweep, want 31", r)
	}
}

// TestExactSweepPrunedCountStable locks the prune counts as a
// deterministic work count: every task's sweep runs sequentially in
// the seed order whatever the worker count, so ScenariosPruned and
// SubtreesPruned are a function of the system alone — for static and
// dynamic analyses, with one worker or a round fanned out over many.
// The exact values are a work gate: a change that moves either count
// fails here even when its results stay bit-identical.
func TestExactSweepPrunedCountStable(t *testing.T) {
	cases := []struct {
		transactions, chainLen int
		static                 bool
		scenarios, subtrees    int64
	}{
		{4, 4, false, 5301, 192},
		{4, 4, true, 1332, 48},
		{5, 6, false, 335420, 864},
		{5, 6, true, 55920, 144},
	}
	for _, c := range cases {
		sys := exactHeavySystem(c.transactions, c.chainLen)
		for _, workers := range []int{1, 1, 2, 8} {
			eng := analysis.NewEngine(analysis.Options{Exact: true, Workers: workers})
			var res *analysis.Result
			var err error
			if c.static {
				res, err = eng.AnalyzeStatic(sys)
			} else {
				res, err = eng.Analyze(sys)
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.ScenariosPruned != c.scenarios || res.SubtreesPruned != c.subtrees {
				t.Fatalf("%dx%d static=%v workers=%d: pruned %d scenarios in %d subtrees, want %d in %d",
					c.transactions, c.chainLen, c.static, workers, res.ScenariosPruned, res.SubtreesPruned,
					c.scenarios, c.subtrees)
			}
		}
	}
}

// TestScenarioCountSaturates locks the overflow fix: a wide
// single-platform system whose scenario product exceeds an int64 must
// report math.MaxInt, not a wrapped negative count.
func TestScenarioCountSaturates(t *testing.T) {
	// 41 transactions × 3 tasks on one platform: the lowest-priority
	// task's product is 3^40 · 4 ≈ 4.9·10^19 > MaxInt64.
	sys := exactHeavySystem(41, 3)
	a := len(sys.Transactions) - 1
	b := len(sys.Transactions[a].Tasks) - 1
	exact, approx := analysis.ScenarioCount(sys, a, b)
	if exact != math.MaxInt {
		t.Fatalf("ScenarioCount = %d, want saturation at MaxInt", exact)
	}
	if approx <= 0 {
		t.Fatalf("approximate count %d must stay exact (no product involved)", approx)
	}

	// Sanity: a small system still counts exactly. For the last task
	// of the lowest-priority transaction of exactHeavySystem(3, 2),
	// the own axis has 1 interferer + the task itself and each of the
	// two higher-priority transactions contributes its 2 tasks:
	// 2 · 2 · 2 = 8 scenario vectors versus 2 approximate ones.
	small := exactHeavySystem(3, 2)
	exact, approx = analysis.ScenarioCount(small, 2, 1)
	if exact != 8 || approx != 2 {
		t.Fatalf("small system counts exact=%d approx=%d, want 8 and 2", exact, approx)
	}
}

// BenchmarkExactSweep measures the exact sweep on the heavy workload
// (≥ 10^5 scenario vectors on the costliest tasks) on a sequential
// engine and with the round's tasks fanned out over 8 workers. One
// static pass isolates the sweep itself from holistic iteration
// effects.
func BenchmarkExactSweep(b *testing.B) {
	sys := exactHeavySystem(6, 7) // lowest-priority tasks: 7^6 = 117 649 scenarios
	if ex, _ := analysis.ScenarioCount(sys, 5, 6); ex < 100_000 {
		b.Fatalf("heavy workload too light: %d scenarios on the costliest task", ex)
	}
	run := func(b *testing.B, opt analysis.Options) {
		b.Helper()
		eng := analysis.NewEngine(opt)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.AnalyzeStatic(sys); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("streamed-pruned-1w", func(b *testing.B) {
		run(b, analysis.Options{Exact: true, Workers: 1})
	})
	b.Run("full-8w", func(b *testing.B) {
		run(b, analysis.Options{Exact: true, Workers: 8})
	})
}
