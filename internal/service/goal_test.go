package service_test

import (
	"context"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/model"
	"hsched/internal/service"
)

// stopCase finds a system of the test corpus and a stop rule of opt —
// a goal transaction, or StopAtDeadlineMiss when all is set — whose
// analysis stops (stop true) or runs to the end (stop false), and
// returns the system and the options with that rule.
func stopCase(t *testing.T, opt analysis.Options, all, stop bool) (*model.System, analysis.Options) {
	t.Helper()
	for seed := int64(1); seed <= 64; seed++ {
		sys := testSystem(t, seed)
		for g := 1; g <= len(sys.Transactions); g++ {
			o := opt
			if all {
				o.StopAtDeadlineMiss = true
			} else {
				o.Goal = g
			}
			res, err := analysis.Analyze(sys, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.StoppedAtGoal == stop {
				return sys, o
			}
		}
	}
	t.Fatalf("no corpus system whose analysis under all=%v stops=%v", all, stop)
	return nil, opt
}

// TestGoalFreeQueryNeverGetsStoppedResult: a result that stopped — at
// its goal, or at any miss under StopAtDeadlineMiss — is memoised under
// its own options only, so a stop-free query of the same system misses
// and gets the fixed point, sessionless or through a session; a later
// query with the stop then hits the stop-free entry. A result that
// carried a stop rule but ran to the end is memoised stop-free, so a
// stop-free query hits it.
func TestGoalFreeQueryNeverGetsStoppedResult(t *testing.T) {
	ctx := context.Background()
	opt := analysis.Options{Workers: 1}
	for _, all := range []bool{false, true} {
		sys, stopOpt := stopCase(t, opt, all, true)
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
			stopped, hit := query(stopOpt)
			if !stopped.StoppedAtGoal || hit {
				t.Fatalf("all=%v session=%v: query stopped=%v hit=%v, want a stopped miss", all, viaSession, stopped.StoppedAtGoal, hit)
			}
			again, hit := query(stopOpt)
			if again != stopped || !hit {
				t.Fatalf("all=%v session=%v: the repeated query was not answered by its own entry", all, viaSession)
			}
			free, hit := query(opt)
			if free.StoppedAtGoal || hit {
				t.Fatalf("all=%v session=%v: stop-free query stopped=%v hit=%v, want a full miss", all, viaSession, free.StoppedAtGoal, hit)
			}
			sameAnalysis(t, free, want)
			later, hit := query(stopOpt)
			if later != free || !hit {
				t.Fatalf("all=%v session=%v: a query with a stop must prefer the stop-free entry", all, viaSession)
			}
		}

		sys, stopOpt = stopCase(t, opt, all, false)
		svc := service.New(service.Options{Shards: 1})
		full, err := svc.AnalyzeOptions(ctx, sys, stopOpt)
		if err != nil {
			t.Fatal(err)
		}
		free, err := svc.AnalyzeOptions(ctx, sys, opt)
		if err != nil {
			t.Fatal(err)
		}
		if full.StoppedAtGoal || free != full {
			t.Fatalf("all=%v: a result that ran to the end under a stop rule was not memoised stop-free", all)
		}
		if st := svc.Stats(); st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("all=%v: stats = %+v, want 1 hit and 1 miss", all, st)
		}
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
