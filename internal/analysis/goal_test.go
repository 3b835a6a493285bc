package analysis_test

import (
	"math/rand"
	"testing"

	"hsched/internal/analysis"
)

// goalModes are the option sets the goal tests run under.
var goalModes = map[string]analysis.Options{
	"approx": {Workers: 1, MaxIterations: 60},
	"exact":  {Workers: 1, MaxIterations: 60, Exact: true},
}

func withGoal(opt analysis.Options, goal int) analysis.Options {
	opt.Goal = goal
	return opt
}

// TestGoalMatchesGoalFree is the goal's metamorphic contract, over
// seeded systems, every transaction as goal, in exact and approximate
// mode:
//   - the goal's verdict, and Schedulable, equal the goal-free ones;
//   - a result that did not stop at its goal is bit-identical to the
//     goal-free result, work counts included;
//   - a stopped result reports lower bounds: its goal misses, no task
//     bound exceeds the fixed point's, and it ran no more rounds.
func TestGoalMatchesGoalFree(t *testing.T) {
	for name, opt := range goalModes {
		t.Run(name, func(t *testing.T) {
			stopped, ran := 0, 0
			for _, sys := range randomSystems(t, 30) {
				free, err := analysis.NewEngine(opt).Analyze(sys)
				if err != nil {
					t.Fatal(err)
				}
				for g := 1; g <= len(sys.Transactions); g++ {
					got, err := analysis.NewEngine(withGoal(opt, g)).Analyze(sys)
					if err != nil {
						t.Fatal(err)
					}
					if got.MeetsDeadline(g-1) != free.MeetsDeadline(g-1) || got.Schedulable != free.Schedulable {
						t.Fatalf("goal %d: verdict (meets %v, sched %v), goal-free (%v, %v)",
							g, got.MeetsDeadline(g-1), got.Schedulable, free.MeetsDeadline(g-1), free.Schedulable)
					}
					if !got.StoppedAtGoal {
						ran++
						if !resultsIdentical(got, free) || got.InterferenceEvals != free.InterferenceEvals ||
							got.ScenariosPruned != free.ScenariosPruned || got.SubtreesPruned != free.SubtreesPruned {
							t.Fatalf("goal %d did not stop, yet its result differs from the goal-free one", g)
						}
						continue
					}
					stopped++
					if got.MeetsDeadline(g-1) || got.Schedulable || got.Iterations > free.Iterations {
						t.Fatalf("goal %d stopped: meets %v, sched %v, %d rounds against %d goal-free",
							g, got.MeetsDeadline(g-1), got.Schedulable, got.Iterations, free.Iterations)
					}
					for i := range got.Tasks {
						for j := range got.Tasks[i] {
							if got.Tasks[i][j].Worst > free.Tasks[i][j].Worst {
								t.Fatalf("goal %d stopped: τ%d,%d bound %v above the fixed point's %v",
									g, i+1, j+1, got.Tasks[i][j].Worst, free.Tasks[i][j].Worst)
							}
						}
					}
				}
			}
			if stopped == 0 || ran == 0 {
				t.Fatalf("%d stopped and %d full goal analyses: the corpus must hold both", stopped, ran)
			}
			t.Logf("%s: %d goal analyses stopped early, %d ran to the end", name, stopped, ran)
		})
	}
}

// TestAnalyzeFromStoppedSeed: a result that stopped — at its goal,
// or at any transaction's miss under StopAtDeadlineMiss — records a
// prefix of the stop-free trajectory, so seeding AnalyzeFrom with it —
// on the same system or after an edit, with no stop rule, the same one
// or another — must equal a cold analysis under the new options, bit
// for bit.
func TestAnalyzeFromStoppedSeed(t *testing.T) {
	for name, opt := range goalModes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			seeded, stopSeeded := 0, 0
			for _, sys := range randomSystems(t, 30) {
				stopAll := opt
				stopAll.StopAtDeadlineMiss = true
				seedOpts := []analysis.Options{stopAll}
				for g := 1; g <= len(sys.Transactions); g++ {
					seedOpts = append(seedOpts, withGoal(opt, g))
				}
				for _, sopt := range seedOpts {
					seed, err := analysis.NewEngine(sopt).Analyze(sys)
					if err != nil {
						t.Fatal(err)
					}
					if !seed.StoppedAtGoal {
						continue
					}
					if !seed.HasReplayState() {
						t.Fatalf("%+v: a stopped result carries no replay state", sopt)
					}
					next := sys
					if rng.Intn(2) == 1 {
						next = mutateOnce(rng, sys)
					}
					n := len(next.Transactions) // an edit may drop a transaction
					for _, nopt := range []analysis.Options{
						opt, withGoal(opt, min(max(sopt.Goal, 1), n)), withGoal(opt, 1+rng.Intn(n)), stopAll,
					} {
						cold, err := analysis.NewEngine(nopt).Analyze(next)
						if err != nil {
							t.Fatal(err)
						}
						warm, err := analysis.NewEngine(nopt).AnalyzeFrom(seed, next)
						if err != nil {
							t.Fatal(err)
						}
						if !resultsIdentical(cold, warm) || cold.StoppedAtGoal != warm.StoppedAtGoal {
							t.Fatalf("seed %+v, options %+v: AnalyzeFrom diverged from a cold analysis (delta=%+v)", sopt, nopt, warm.Delta)
						}
						if warm.Delta != nil && nopt.ReplayKey() != sopt.ReplayKey() {
							seeded++
							if sopt.StopAtDeadlineMiss {
								stopSeeded++
							}
						}
					}
				}
			}
			if seeded == 0 || stopSeeded == 0 {
				t.Fatalf("%d stopped seeds replayed under another stop rule, %d of them StopAtDeadlineMiss seeds: the test is vacuous", seeded, stopSeeded)
			}
			t.Logf("%s: %d analyses replayed a stopped seed under another stop rule (%d StopAtDeadlineMiss seeds)", name, seeded, stopSeeded)
		})
	}
}

// TestGoalOutOfRange: a goal naming no transaction is an error.
func TestGoalOutOfRange(t *testing.T) {
	sys := randomSystems(t, 1)[0]
	for _, g := range []int{-1, len(sys.Transactions) + 1} {
		if _, err := analysis.Analyze(sys, analysis.Options{Goal: g}); err == nil {
			t.Errorf("goal %d of %d transactions accepted", g, len(sys.Transactions))
		}
	}
}
