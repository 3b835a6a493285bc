package service_test

import (
	"context"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/model"
	"hsched/internal/service"
)

// goalCase finds a system of the test corpus and a goal transaction
// whose goal analysis stops (stop true) or runs to the end (stop
// false) under opt.
func goalCase(t *testing.T, opt analysis.Options, stop bool) (*model.System, int) {
	t.Helper()
	for seed := int64(1); seed <= 64; seed++ {
		sys := testSystem(t, seed)
		for g := 1; g <= len(sys.Transactions); g++ {
			opt.Goal = g
			res, err := analysis.Analyze(sys, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.StoppedAtGoal == stop {
				return sys, g
			}
		}
	}
	t.Fatalf("no corpus system with a goal analysis that stops=%v", stop)
	return nil, 0
}

// TestGoalFreeQueryNeverGetsStoppedResult: a result that stopped at
// its goal is memoised under its goal only, so a goal-free query of
// the same system misses and gets the fixed point, sessionless or
// through a session; a later goal probe then hits the goal-free
// entry. A goal probe that ran to the end is memoised goal-free, so a
// goal-free query hits it.
func TestGoalFreeQueryNeverGetsStoppedResult(t *testing.T) {
	ctx := context.Background()
	opt := analysis.Options{Workers: 1}
	sys, g := goalCase(t, opt, true)
	goalOpt := opt
	goalOpt.Goal = g
	want, err := analysis.NewEngine(opt).Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}

	for _, viaSession := range []bool{false, true} {
		svc := service.New(service.Options{Shards: 1})
		sess := svc.NewSession()
		query := func(o analysis.Options) (*analysis.Result, bool) {
			t.Helper()
			before := svc.Stats().Hits
			var res *analysis.Result
			var err error
			if viaSession {
				res, err = sess.AnalyzeOptions(ctx, sys, o)
			} else {
				res, err = svc.AnalyzeOptions(ctx, sys, o)
			}
			if err != nil {
				t.Fatal(err)
			}
			return res, svc.Stats().Hits > before
		}
		stopped, hit := query(goalOpt)
		if !stopped.StoppedAtGoal || hit {
			t.Fatalf("session=%v: goal probe stopped=%v hit=%v, want a stopped miss", viaSession, stopped.StoppedAtGoal, hit)
		}
		again, hit := query(goalOpt)
		if again != stopped || !hit {
			t.Fatalf("session=%v: the repeated goal probe was not answered by its own entry", viaSession)
		}
		free, hit := query(opt)
		if free.StoppedAtGoal || hit {
			t.Fatalf("session=%v: goal-free query stopped=%v hit=%v, want a full miss", viaSession, free.StoppedAtGoal, hit)
		}
		sameAnalysis(t, free, want)
		later, hit := query(goalOpt)
		if later != free || !hit {
			t.Fatalf("session=%v: a goal probe must prefer the goal-free entry", viaSession)
		}
	}

	sys, g = goalCase(t, opt, false)
	goalOpt.Goal = g
	svc := service.New(service.Options{Shards: 1})
	full, err := svc.AnalyzeOptions(ctx, sys, goalOpt)
	if err != nil {
		t.Fatal(err)
	}
	free, err := svc.AnalyzeOptions(ctx, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if full.StoppedAtGoal || free != full {
		t.Fatalf("a goal probe that ran to the end was not memoised goal-free")
	}
	if st := svc.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit and 1 miss", st)
	}
}

// TestSessionHitLeavesProbation: a session's memo hit is a search
// revisiting its own recent probe, so it does not mark the entry used:
// the entry leaves through probation when newer keys push it out. A
// sessionless re-query marks its entry, which moves to the main
// region and stays.
func TestSessionHitLeavesProbation(t *testing.T) {
	ctx := context.Background()
	// Capacity 8 keeps 4 entries on probation.
	svc := service.New(service.Options{Shards: 1, Capacity: 8})
	probe, query := testSystem(t, 1), testSystem(t, 2)
	sess := svc.NewSession()
	for range 2 {
		if _, err := sess.Analyze(ctx, probe); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Analyze(ctx, query); err != nil {
			t.Fatal(err)
		}
	}
	if st := sess.Stats(); st.MemoHits != 1 {
		t.Fatalf("session stats = %+v, want the revisit answered by the memo", st)
	}
	// Six one-off systems push both entries out of probation.
	for seed := int64(10); seed < 16; seed++ {
		if _, err := svc.Analyze(ctx, testSystem(t, seed)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name    string
		sys     *model.System
		wantHit bool
	}{{"sessionless re-query", query, true}, {"session revisit", probe, false}} {
		before := svc.Stats().Hits
		if _, err := svc.Analyze(ctx, c.sys); err != nil {
			t.Fatal(err)
		}
		if hit := svc.Stats().Hits > before; hit != c.wantHit {
			t.Errorf("%s: later query hit=%v, want %v", c.name, hit, c.wantHit)
		}
	}
}
