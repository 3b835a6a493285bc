package analysis_test

import (
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/gen"
	"hsched/internal/model"
)

// workCounts is the deterministic work profile of one analysis.
type workCounts struct {
	pruned, subtrees, evals int64
}

func workOf(r *analysis.Result) workCounts {
	return workCounts{r.ScenariosPruned, r.SubtreesPruned, r.InterferenceEvals}
}

// exactColdSystem draws one system of the exact-cold benchmark shape:
// one platform, four random-priority chains of four tasks.
func exactColdSystem(t *testing.T, seed int64) *model.System {
	t.Helper()
	for _, sh := range analysis.BenchShapes {
		if sh.Name == "exact-cold" {
			sys, err := gen.System(sh.Config(seed))
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
	}
	t.Fatal("no exact-cold benchmark shape")
	return nil
}

// TestColdWorkIndependentOfEngineHistory: a cold Analyze reports the
// same work counts (ScenariosPruned, SubtreesPruned, InterferenceEvals)
// whatever the engine analysed before — an unrelated system of the
// same shape, or an AnalyzeFrom chain of WCET retunings of the very
// system under analysis — as on a fresh engine, for the exact and the
// approximate analysis and for every worker count.
func TestColdWorkIndependentOfEngineHistory(t *testing.T) {
	type pair struct{ before, target int64 }
	pairs := []pair{{1019, 19}, {19, 1019}, {7, 8}}
	for _, exact := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			opt := analysis.Options{Exact: exact, Workers: workers}
			for _, p := range pairs {
				target := exactColdSystem(t, p.target)
				fresh, err := analysis.NewEngine(opt).Analyze(target)
				if err != nil {
					t.Fatal(err)
				}
				want := workOf(fresh)

				// An unrelated same-shaped system first.
				eng := analysis.NewEngine(opt)
				if _, err := eng.Analyze(exactColdSystem(t, p.before)); err != nil {
					t.Fatal(err)
				}
				got, err := eng.Analyze(target)
				if err != nil {
					t.Fatal(err)
				}
				if w := workOf(got); w != want {
					t.Errorf("exact=%v workers=%d: seed %d after seed %d: work %+v, fresh engine %+v",
						exact, workers, p.target, p.before, w, want)
				}
				if !resultsIdentical(fresh, got) {
					t.Fatalf("exact=%v workers=%d: seed %d after seed %d: bounds differ from a fresh engine",
						exact, workers, p.target, p.before)
				}

				// An AnalyzeFrom chain of retunings of the target first.
				eng = analysis.NewEngine(opt)
				var prev *analysis.Result
				for _, scale := range []float64{1.04, 1.02, 0.98} {
					mut := target.Clone()
					for i := range mut.Transactions {
						mut.Transactions[i].Tasks[0].WCET *= scale
					}
					if prev == nil {
						prev, err = eng.Analyze(mut)
					} else {
						prev, err = eng.AnalyzeFrom(prev, mut)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if got, err = eng.Analyze(target); err != nil {
					t.Fatal(err)
				}
				if w := workOf(got); w != want {
					t.Errorf("exact=%v workers=%d: seed %d after an AnalyzeFrom chain: work %+v, fresh engine %+v",
						exact, workers, p.target, w, want)
				}
			}
		}
	}
}
