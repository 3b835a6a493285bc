package sched

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/platform"
	"hsched/internal/service"
)

// paperSystem reconstructs the sensor-fusion example of Tables 1-2.
// It is deliberately a local copy: package experiments imports sched
// (the A10 policy ablation), so sched's internal tests cannot import
// experiments back.
func paperSystem() *model.System {
	return &model.System{
		Platforms: []platform.Params{
			{Alpha: 0.4, Delta: 1, Beta: 1}, // Π1
			{Alpha: 0.4, Delta: 1, Beta: 1}, // Π2
			{Alpha: 0.2, Delta: 2, Beta: 1}, // Π3
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

// coldOracle returns analysis options whose no-op Recorder makes every
// probe skip the service's memo, in-flight table and session seed and
// run cold, which is exactly the pre-session private-engine oracle.
func coldOracle() analysis.Options {
	return analysis.Options{Recorder: func(int, *analysis.Result) {}}
}

// multiPlatformSystem returns a generated 3-platform system with
// mixed chains, the shape where priority probes leave whole platforms
// replayable.
func multiPlatformSystem(t *testing.T) *model.System {
	t.Helper()
	sys, err := gen.System(gen.Config{
		Seed: 42, Platforms: 3, Transactions: 4, ChainLen: 3,
		PeriodMin: 20, PeriodMax: 400, Utilization: 0.4,
		AlphaMin: 0.4, AlphaMax: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// assertSameAssignment fails unless the two systems carry identical
// task priorities and the two results identical bounds, bit for bit.
func assertSameAssignment(t *testing.T, warm, cold *model.System, rw, rc *analysis.Result) {
	t.Helper()
	for i := range warm.Transactions {
		for j := range warm.Transactions[i].Tasks {
			pw := warm.Transactions[i].Tasks[j].Priority
			pc := cold.Transactions[i].Tasks[j].Priority
			if pw != pc {
				t.Fatalf("task (%d,%d): warm priority %d != cold %d", i, j, pw, pc)
			}
		}
	}
	if rw.Schedulable != rc.Schedulable || rw.Iterations != rc.Iterations || rw.Converged != rc.Converged {
		t.Fatalf("verdicts differ: warm {sched %v iters %d conv %v} vs cold {sched %v iters %d conv %v}",
			rw.Schedulable, rw.Iterations, rw.Converged, rc.Schedulable, rc.Iterations, rc.Converged)
	}
	if !reflect.DeepEqual(rw.Tasks, rc.Tasks) {
		t.Fatalf("per-task bounds differ between warm-service and cold-engine paths:\n%v\nvs\n%v", rw.Tasks, rc.Tasks)
	}
}

// TestAudsleyServiceBitIdentical: routing the Audsley oracle through a
// memoised+incremental service must leave the assignment and every
// reported bound bit-identical to the cold private-engine path, while
// the service statistics show the probe traffic riding the memo and
// the delta path. Locked on the paper example and a generated
// multi-platform system.
func TestAudsleyServiceBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		sys  func(t *testing.T) *model.System
		// probeCeiling locks the oracle traffic of the search: a
		// regression that stops sharing probes (or probes more) trips
		// it.
		probeCeiling int64
	}{
		{"paper", func(t *testing.T) *model.System { return paperSystem() }, 30},
		{"gen-multi-platform", multiPlatformSystem, 120},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			warmSys, coldSys := tc.sys(t), tc.sys(t)

			warm := service.New(service.Options{Shards: 1})
			resWarm, okWarm, err := AudsleyContext(context.Background(), warmSys, AudsleyOptions{Service: warm})
			if err != nil {
				t.Fatal(err)
			}
			resCold, okCold, err := AudsleyContext(context.Background(), coldSys, AudsleyOptions{Analysis: coldOracle()})
			if err != nil {
				t.Fatal(err)
			}
			if okWarm != okCold {
				t.Fatalf("ok: warm %v != cold %v", okWarm, okCold)
			}
			assertSameAssignment(t, warmSys, coldSys, resWarm, resCold)

			// The installed assignment must reproduce the returned
			// result on an independent engine, bit for bit.
			verify, err := analysis.NewEngine(analysis.Options{}).Analyze(warmSys)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(verify.Tasks, resWarm.Tasks) {
				t.Fatalf("independent analysis of the installed assignment differs from the returned result")
			}

			st := warm.Stats()
			if st.Hits+st.Misses != st.Queries {
				t.Fatalf("stats inconsistent: hits %d + misses %d != queries %d", st.Hits, st.Misses, st.Queries)
			}
			if st.Queries > tc.probeCeiling {
				t.Errorf("probe count %d above the locked ceiling %d", st.Queries, tc.probeCeiling)
			}
			if st.Hits == 0 {
				t.Errorf("stats = %+v: no probe was answered by the memo", st)
			}
			if st.DeltaHits == 0 || st.RoundsSaved <= 0 {
				t.Errorf("stats = %+v: the one-priority-apart probes never rode the incremental path", st)
			}
			t.Logf("%s: %d probes, %d memo hits, %d delta hits, %d task-rounds saved",
				tc.name, st.Queries, st.Hits, st.DeltaHits, st.RoundsSaved)
		})
	}
}

// TestHOPAServiceBitIdentical: same contract for the HOPA search.
func TestHOPAServiceBitIdentical(t *testing.T) {
	warmSys, coldSys := paperSystem(), paperSystem()

	warm := service.New(service.Options{Shards: 1})
	resWarm, err := HOPAContext(context.Background(), warmSys, HOPAOptions{Service: warm})
	if err != nil {
		t.Fatal(err)
	}
	resCold, err := HOPAContext(context.Background(), coldSys, HOPAOptions{Analysis: coldOracle()})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssignment(t, warmSys, coldSys, resWarm, resCold)

	st := warm.Stats()
	if st.Hits+st.Misses != st.Queries {
		t.Fatalf("stats inconsistent: %+v", st)
	}
	if st.Hits == 0 {
		t.Errorf("stats = %+v: HOPA's converged rounds should re-visit memoised assignments", st)
	}
}

// TestAssignPolicies: the dispatcher runs every policy, installs an
// assignment, and agrees with the direct entry points.
func TestAssignPolicies(t *testing.T) {
	for _, p := range Policies() {
		sys := paperSystem()
		res, ok, err := Assign(context.Background(), sys, p, AssignOptions{})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !ok || !res.Schedulable {
			t.Errorf("%s: paper example should stay schedulable (ok=%v)", p, ok)
		}
	}
	if _, _, err := Assign(context.Background(), paperSystem(), Policy("bogus"), AssignOptions{}); err == nil {
		t.Errorf("unknown policy accepted")
	}
}

// TestSearchCancellation: a cancelled context aborts both searches —
// including against a warm service, where every probe would otherwise
// be a memo hit that never observes the context.
func TestSearchCancellation(t *testing.T) {
	svc := service.New(service.Options{Shards: 1})
	// Warm the memo with a full search.
	if _, _, err := AudsleyContext(context.Background(), paperSystem(), AudsleyOptions{Service: svc}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := AudsleyContext(ctx, paperSystem(), AudsleyOptions{Service: svc}); !errors.Is(err, context.Canceled) {
		t.Fatalf("audsley: err = %v, want context.Canceled", err)
	}
	if _, err := HOPAContext(ctx, paperSystem(), HOPAOptions{Service: svc}); !errors.Is(err, context.Canceled) {
		t.Fatalf("hopa: err = %v, want context.Canceled", err)
	}
	if _, _, err := Assign(ctx, paperSystem(), PolicyRM, AssignOptions{Service: svc}); !errors.Is(err, context.Canceled) {
		t.Fatalf("assign rm: err = %v, want context.Canceled", err)
	}
}

// TestScoreOfTieBreak: among unschedulable candidates the documented
// tie-break must hold — the smallest worst normalised overshoot wins,
// unbounded responses rank below every bounded miss, and fewer
// unbounded chains beat more.
func TestScoreOfTieBreak(t *testing.T) {
	mk := func(worsts ...float64) *analysis.Result {
		res := &analysis.Result{
			System: &model.System{Platforms: []platform.Params{platform.Dedicated()}},
		}
		for _, w := range worsts {
			res.System.Transactions = append(res.System.Transactions,
				model.Transaction{Period: 10, Deadline: 10, Tasks: []model.Task{{WCET: 1, BCET: 1}}})
			res.Tasks = append(res.Tasks, []analysis.TaskResult{{Worst: w}})
		}
		return res
	}
	inf := math.Inf(1)

	sched1 := mk(5, 8)     // schedulable, min slack 0.2
	miss1 := mk(5, 12)     // missed by 20%
	miss2 := mk(5, 14)     // missed by 40%
	unb1 := mk(5, inf)     // one unbounded chain, healthy finite chain
	unb1b := mk(inf, 10.5) // one unbounded chain, finite chain missing too
	unb2 := mk(inf, inf)   // two unbounded chains

	order := []*analysis.Result{sched1, miss1, miss2, unb1, unb1b, unb2}
	for i := 0; i+1 < len(order); i++ {
		if !(scoreOf(order[i]) > scoreOf(order[i+1])) {
			t.Errorf("score order violated at %d: %v !> %v", i, scoreOf(order[i]), scoreOf(order[i+1]))
		}
	}

	// Astronomic finite overshoots must not cross the penalty bands:
	// any bounded assignment still outranks any diverging one, and one
	// diverging chain still outranks two, however bad the finite
	// chains look.
	hugeMiss := mk(5, 1e12)  // bounded, overshoot ~1e11 deadlines
	unbHuge := mk(inf, 1e12) // one unbounded + the same overshoot
	if !(scoreOf(hugeMiss) > scoreOf(unb1)) {
		t.Errorf("bounded huge miss %v ranked below a diverging assignment %v", scoreOf(hugeMiss), scoreOf(unb1))
	}
	if !(scoreOf(unb1b) > scoreOf(unb2)) || !(scoreOf(unbHuge) > scoreOf(unb2)) {
		t.Errorf("one diverging chain must outrank two: %v, %v vs %v", scoreOf(unb1b), scoreOf(unbHuge), scoreOf(unb2))
	}
}
