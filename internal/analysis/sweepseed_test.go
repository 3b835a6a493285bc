package analysis_test

import (
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/gen"
	"hsched/internal/model"
)

// seedMutationChain extends sys into the probe-chain shape the
// session-carried sweep state serves: cumulative one-edit mutations —
// WCET retunings and one priority swap (an interference-shape change,
// the case a stale prune-state summary must survive by being
// discarded, not believed).
func seedMutationChain(sys *model.System) []*model.System {
	chain := []*model.System{sys}
	step := func(mutate func(*model.System)) {
		next := chain[len(chain)-1].Clone()
		mutate(next)
		chain = append(chain, next)
	}
	step(func(s *model.System) { s.Transactions[0].Tasks[0].WCET *= 1.05 })
	step(func(s *model.System) {
		tr := &s.Transactions[len(s.Transactions)-1]
		tr.Tasks[len(tr.Tasks)-1].WCET *= 0.97
	})
	step(func(s *model.System) {
		// Swap two priorities inside one transaction: the scenario
		// axes of every task it interferes with change shape.
		tr := &s.Transactions[1]
		a, b := 0, len(tr.Tasks)-1
		tr.Tasks[a].Priority, tr.Tasks[b].Priority = tr.Tasks[b].Priority, tr.Tasks[a].Priority
	})
	step(func(s *model.System) { s.Transactions[0].Tasks[1].WCET *= 1.08 })
	return chain
}

// TestSweepSeedBitIdentity is the cross-probe metamorphic contract:
// walking a mutation chain through one engine via AnalyzeFrom — each
// exact sweep seeded by the previous probe's critical scenarios and
// each round eligible for the unchanged-inputs copy — must hold every
// round to the naive sweep and reproduce, bit for bit, each step
// analysed cold on a fresh engine, for every worker count.
func TestSweepSeedBitIdentity(t *testing.T) {
	gensys, err := gen.System(gen.Config{
		Seed: 9300, Platforms: 1, Transactions: 3, ChainLen: 4,
		PeriodMin: 20, PeriodMax: 200, Utilization: 0.5,
		AlphaMin: 0.5, AlphaMax: 0.9, RandomPriorities: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	systems := []*model.System{gensys, exactHeavySystem(4, 4)}

	for si, sys := range systems {
		chain := seedMutationChain(sys)
		for _, workers := range []int{1, 4, 8} {
			opt := analysis.Options{Exact: true, Workers: workers, MaxIterations: 40}
			eng := analysis.NewCheckedEngine(t, opt)
			var prev *analysis.Result
			for ci, cs := range chain {
				want, err := analysis.NewEngine(opt).Analyze(cs)
				if err != nil {
					t.Fatal(err)
				}
				var got *analysis.Result
				if prev == nil {
					got, err = eng.Analyze(cs)
				} else {
					got, err = eng.AnalyzeFrom(prev, cs)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !resultsIdentical(want, got) {
					t.Fatalf("system %d chain %d workers=%d: seeded sweep diverged from cold",
						si, ci, workers)
				}
				prev = got
			}
		}
	}
}
