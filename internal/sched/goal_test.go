package sched

import (
	"context"
	"sort"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/model"
	"hsched/internal/service"
)

// referenceAudsley is the Audsley search of AudsleyContext written
// against cold goal-free analyses: every probe runs to its fixed
// point, and a candidate is accepted when its converged probe meets
// the transaction's deadline. It returns the final result, whether the
// assignment is schedulable, the number of probes, and how many
// candidate probes a goal would have stopped early.
func referenceAudsley(t *testing.T, sys *model.System, opt analysis.Options) (*analysis.Result, bool, int64, int) {
	t.Helper()
	probes, stops := int64(0), 0
	probe := func(goal int) *analysis.Result {
		t.Helper()
		probes++
		res, err := analysis.Analyze(sys, opt)
		if err != nil {
			t.Fatal(err)
		}
		if goal > 0 {
			gopt := opt
			gopt.Goal = goal
			g, err := analysis.Analyze(sys, gopt)
			if err != nil {
				t.Fatal(err)
			}
			if g.StoppedAtGoal {
				stops++
			}
		}
		return res
	}
	type ref struct{ i, j int }
	perPlatform := map[int][]ref{}
	for i := range sys.Transactions {
		for j, tk := range sys.Transactions[i].Tasks {
			perPlatform[tk.Platform] = append(perPlatform[tk.Platform], ref{i, j})
		}
	}
	var platforms []int
	for m := range perPlatform {
		platforms = append(platforms, m)
	}
	sort.Ints(platforms)
	attempt := func(order []int) (*analysis.Result, bool) {
		for i := range sys.Transactions {
			for j := range sys.Transactions[i].Tasks {
				sys.Transactions[i].Tasks[j].Priority = audsleyUnassigned
			}
		}
		for _, m := range order {
			refs := perPlatform[m]
			assigned := make([]bool, len(refs))
			for level := 1; level <= len(refs); level++ {
				found := false
				for c, r := range refs {
					if assigned[c] {
						continue
					}
					sys.Transactions[r.i].Tasks[r.j].Priority = level
					if res := probe(r.i + 1); res.Converged && res.MeetsDeadline(r.i) {
						assigned[c], found = true, true
						break
					}
					sys.Transactions[r.i].Tasks[r.j].Priority = audsleyUnassigned
				}
				if !found {
					return probe(0), false
				}
			}
		}
		res := probe(0)
		return res, res.Schedulable
	}
	var last *analysis.Result
	for rot := range platforms {
		order := append(append([]int(nil), platforms[rot:]...), platforms[:rot]...)
		res, ok := attempt(order)
		if ok {
			return res, true, probes, stops
		}
		last = res
	}
	return last, false, probes, stops
}

// TestAudsleyGoalProbesMatchReference: on a seeded corpus, the search
// whose candidate probes stop at their transaction's first deadline
// miss installs the priorities, returns the result and issues the
// probes of the reference search that runs every probe to its fixed
// point. The tight MaxIterations set holds probes that the iteration
// cap cuts, which the search must not accept.
func TestAudsleyGoalProbesMatchReference(t *testing.T) {
	systems := append(audsleySearchSystems(t), paperSystem(), multiPlatformSystem(t))
	for name, opt := range map[string]analysis.Options{
		"approx":        {MaxIterations: 32, Workers: 1},
		"approx-capped": {MaxIterations: 3, Workers: 1},
		"exact":         {MaxIterations: 32, Workers: 1, Exact: true},
	} {
		t.Run(name, func(t *testing.T) {
			stops := 0
			for k, sys := range systems {
				if opt.Exact && k >= 4 {
					break // a few exact searches suffice
				}
				work, ref := sys.Clone(), sys.Clone()
				svc := service.New(service.Options{Shards: 1})
				res, ok, err := AudsleyContext(context.Background(), work, AudsleyOptions{Analysis: opt, Service: svc})
				if err != nil {
					t.Fatal(err)
				}
				want, wantOK, probes, s := referenceAudsley(t, ref, opt)
				stops += s
				if ok != wantOK {
					t.Fatalf("system %d: ok %v, reference %v", k, ok, wantOK)
				}
				assertSameAssignment(t, work, ref, res, want)
				if res.StoppedAtGoal {
					t.Fatalf("system %d: the search returned a result that stopped at its goal", k)
				}
				if got := svc.Stats().Queries; got != probes {
					t.Fatalf("system %d: %d probes, reference %d", k, got, probes)
				}
			}
			if stops == 0 {
				t.Fatalf("no candidate probe stopped at its goal: the test is vacuous")
			}
			t.Logf("%s: %d candidate probes stopped at their goal", name, stops)
		})
	}
}

// TestAudsleyRejectsUnconvergedProbes: with one holistic round per
// probe no probe reaches a fixed point, so no candidate is accepted:
// every task stays at the provisional top level and the search fails.
func TestAudsleyRejectsUnconvergedProbes(t *testing.T) {
	sys := paperSystem()
	res, ok, err := Audsley(sys, analysis.Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ok || res.Converged {
		t.Fatalf("ok %v, converged %v: want a failed search on unconverged probes", ok, res.Converged)
	}
	for i := range sys.Transactions {
		for j, tk := range sys.Transactions[i].Tasks {
			if tk.Priority != audsleyUnassigned {
				t.Errorf("τ%d,%d: priority %d accepted on an unconverged probe", i+1, j+1, tk.Priority)
			}
		}
	}
}
