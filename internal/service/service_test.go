package service_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/experiments"
	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/service"
)

func testSystem(t testing.TB, seed int64) *model.System {
	t.Helper()
	sys, err := gen.System(gen.Config{
		Seed: seed, Platforms: 2, Transactions: 3, ChainLen: 3,
		PeriodMin: 20, PeriodMax: 300, Utilization: 0.45,
		AlphaMin: 0.4, AlphaMax: 0.9,
	})
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	return sys
}

// sameAnalysis asserts two results are bit-identical in every per-task
// bound and in the verdict fields.
func sameAnalysis(t *testing.T, got, want *analysis.Result) {
	t.Helper()
	if got.Schedulable != want.Schedulable || got.Converged != want.Converged || got.Iterations != want.Iterations {
		t.Fatalf("verdict mismatch: got {sched %v conv %v iters %d}, want {sched %v conv %v iters %d}",
			got.Schedulable, got.Converged, got.Iterations, want.Schedulable, want.Converged, want.Iterations)
	}
	for i := range want.Tasks {
		for j := range want.Tasks[i] {
			if got.Tasks[i][j] != want.Tasks[i][j] {
				t.Fatalf("task (%d,%d): got %+v, want %+v", i, j, got.Tasks[i][j], want.Tasks[i][j])
			}
		}
	}
}

func TestServiceHitMatchesFreshEngine(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t, 1)
	want, err := analysis.NewEngine(analysis.Options{Workers: 1}).Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}

	svc := service.New(service.Options{Shards: 2, Analysis: analysis.Options{Workers: 1}})
	first, err := svc.Analyze(ctx, sys)
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.Analyze(ctx, sys.Clone()) // value-identical ⇒ same fingerprint
	if err != nil {
		t.Fatal(err)
	}
	sameAnalysis(t, first, want)
	sameAnalysis(t, second, want)
	if first != second {
		t.Fatalf("memo hit should return the cached *Result")
	}
	st := svc.Stats()
	if st.Queries != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 queries / 1 hit / 1 miss", st)
	}
}

// TestServiceConcurrencyHammer drives one Service from many goroutines
// (run under -race in CI) over a small population of systems and
// option variants, asserting every answer is bit-identical to a fresh
// single-engine analysis and that the counters balance.
func TestServiceConcurrencyHammer(t *testing.T) {
	ctx := context.Background()
	const nSystems, goroutines, perG = 4, 8, 48

	systems := make([]*model.System, nSystems)
	for k := range systems {
		systems[k] = testSystem(t, int64(10+k))
	}
	variants := []analysis.Options{
		{Workers: 1},
		{Workers: 1, TightBestCase: true},
	}
	want := make(map[[2]int]*analysis.Result)
	for k, sys := range systems {
		for v, opt := range variants {
			res, err := analysis.NewEngine(opt).Analyze(sys)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{k, v}] = res
		}
	}

	svc := service.New(service.Options{Shards: 4})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := 0; q < perG; q++ {
				k := (g + q) % nSystems
				v := q % len(variants)
				res, err := svc.AnalyzeOptions(ctx, systems[k], variants[v])
				if err != nil {
					errs <- err
					return
				}
				ref := want[[2]int{k, v}]
				if res.Schedulable != ref.Schedulable || res.Iterations != ref.Iterations {
					errs <- fmt.Errorf("goroutine %d query %d: verdict mismatch", g, q)
					return
				}
				for i := range ref.Tasks {
					for j := range ref.Tasks[i] {
						if res.Tasks[i][j] != ref.Tasks[i][j] {
							errs <- fmt.Errorf("goroutine %d query %d task (%d,%d): %+v != %+v",
								g, q, i, j, res.Tasks[i][j], ref.Tasks[i][j])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := svc.Stats()
	total := int64(goroutines * perG)
	if st.Queries != total {
		t.Fatalf("queries = %d, want %d", st.Queries, total)
	}
	if st.Hits+st.Misses != st.Queries {
		t.Fatalf("hits (%d) + misses (%d) != queries (%d)", st.Hits, st.Misses, st.Queries)
	}
	// Ample capacity and no failures: each distinct (system, options)
	// key runs its analysis exactly once, leader-deduplicated.
	if distinct := int64(nSystems * len(variants)); st.Misses != distinct {
		t.Fatalf("misses = %d, want %d (one analysis per distinct key)", st.Misses, distinct)
	}
}

func TestServiceNormalisedOptionsShareEntry(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t, 2)
	svc := service.New(service.Options{Shards: 1})

	if _, err := svc.AnalyzeOptions(ctx, sys, analysis.Options{}); err != nil {
		t.Fatal(err)
	}
	explicit := analysis.Options{
		MaxScenarios:  1 << 20,
		Epsilon:       1e-9,
		MaxIterations: 1000,
		MaxInner:      1_000_000,
	}
	if _, err := svc.AnalyzeOptions(ctx, sys, explicit); err != nil {
		t.Fatal(err)
	}
	// Workers changes scheduling, never results: excluded from the key.
	if _, err := svc.AnalyzeOptions(ctx, sys, analysis.Options{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v: zero-value, explicit-default and Workers-only-different options should share one memo entry", st)
	}
}

func TestServiceStaticAndDynamicAreDistinct(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t, 3)
	svc := service.New(service.Options{Shards: 1})
	if _, err := svc.Analyze(ctx, sys); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AnalyzeStatic(ctx, sys); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Misses != 2 {
		t.Fatalf("stats = %+v: static and holistic analyses must not share a memo entry", st)
	}
}

func TestServiceLRUEviction(t *testing.T) {
	ctx := context.Background()
	svc := service.New(service.Options{Shards: 1, Capacity: 2})
	a, b, c := testSystem(t, 4), testSystem(t, 5), testSystem(t, 6)
	for _, sys := range []*model.System{a, b, c} { // c evicts a
		if _, err := svc.Analyze(ctx, sys); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Analyze(ctx, a); err != nil { // re-miss, evicts b
		t.Fatal(err)
	}
	if _, err := svc.Analyze(ctx, c); err != nil { // still resident
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Misses != 4 || st.Hits != 1 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want 4 misses / 1 hit / 2 evictions", st)
	}
}

func TestServiceContextCancelled(t *testing.T) {
	sys := testSystem(t, 8)
	svc := service.New(service.Options{Shards: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Analyze(ctx, sys); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A cancelled analysis must not poison the memo: the next live
	// query runs and succeeds.
	res, err := svc.Analyze(context.Background(), sys)
	if err != nil || res == nil {
		t.Fatalf("query after cancellation: res=%v err=%v", res, err)
	}
	st := svc.Stats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v: errored analyses must not be cached", st)
	}
}

func TestServiceRecorderBypassesMemo(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t, 9)
	svc := service.New(service.Options{Shards: 1})
	fired := 0
	opt := analysis.Options{Workers: 1, Recorder: func(int, *analysis.Result) { fired++ }}
	if _, err := svc.AnalyzeOptions(ctx, sys, opt); err != nil {
		t.Fatal(err)
	}
	first := fired
	if first == 0 {
		t.Fatal("recorder never fired")
	}
	if _, err := svc.AnalyzeOptions(ctx, sys, opt); err != nil {
		t.Fatal(err)
	}
	if fired != 2*first {
		t.Fatalf("recorder fired %d times after two queries, want %d: recorder queries must not be served from the memo", fired, 2*first)
	}
	if st := svc.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want two misses", st)
	}
}

// TestServiceDeltaPath: a session probe one transaction away from the
// session's previous result is routed through the incremental analysis
// — counted as a DeltaHit with RoundsSaved accumulated — and still
// answers with the exact bits a fresh cold engine produces. A plain
// query without a session never rides the delta path.
func TestServiceDeltaPath(t *testing.T) {
	ctx := context.Background()
	// The paper example with its background load retuned: the edit
	// provably reaches only τ4,1, so six of seven tasks replay.
	base := experiments.PaperSystem()
	mut := base.Clone()
	mut.Transactions[3].Tasks[0].WCET = 7.5

	svc := service.New(service.Options{Shards: 2, Analysis: analysis.Options{Workers: 1}})
	sess := svc.NewSession()
	if _, err := sess.Analyze(ctx, base); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Analyze(ctx, mut)
	if err != nil {
		t.Fatal(err)
	}
	want, err := analysis.NewEngine(analysis.Options{Workers: 1}).Analyze(mut)
	if err != nil {
		t.Fatal(err)
	}
	sameAnalysis(t, got, want)

	st := svc.Stats()
	if st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses", st)
	}
	if st.DeltaHits < 1 {
		t.Fatalf("stats = %+v: the near-match query should have run incrementally", st)
	}
	if st.RoundsSaved <= 0 {
		t.Fatalf("stats = %+v: a delta hit must save task-rounds", st)
	}

	// Service-returned results are stripped of replay history (only
	// the session's pinned seed keeps the full copy), so a large memo
	// never pins unreachable histories.
	if got.HasReplayState() {
		t.Fatalf("service-returned result still carries replay state")
	}

	// Re-querying either system is a plain memo hit, not a delta hit.
	if _, err := sess.Analyze(ctx, mut); err != nil {
		t.Fatal(err)
	}
	if st2 := svc.Stats(); st2.DeltaHits != st.DeltaHits || st2.Hits != st.Hits+1 {
		t.Fatalf("stats = %+v: repeat query must hit the memo", st2)
	}

	// A second single-transaction step chains off the previous
	// mutation's seed — the full-history copy the session pinned.
	mut2 := mut.Clone()
	mut2.Transactions[3].Tasks[0].WCET = 7.25
	if _, err := sess.Analyze(ctx, mut2); err != nil {
		t.Fatal(err)
	}
	st3 := svc.Stats()
	if st3.DeltaHits < st.DeltaHits+1 {
		t.Fatalf("stats = %+v: chained mutation must delta-hit off the pinned seed", st3)
	}

	// The same one-transaction step issued without a session runs cold:
	// sessions are the only delta path.
	plain := mut2.Clone()
	plain.Transactions[3].Tasks[0].WCET = 7.75
	res, err := svc.Analyze(ctx, plain)
	if err != nil {
		t.Fatal(err)
	}
	if st4 := svc.Stats(); res.Delta != nil || st4.DeltaHits != st3.DeltaHits || st4.Misses != st3.Misses+1 {
		t.Fatalf("stats = %+v: a plain near-match query must run cold, with 0 delta hits", st4)
	}
}

// TestServiceDeltaDistinctOptions: a session seed computed under
// different analysis options must not seed the probe (the trajectories
// differ), and the engine-level fallback keeps the answer correct.
func TestServiceDeltaDistinctOptions(t *testing.T) {
	ctx := context.Background()
	base := experiments.PaperSystem()
	mut := base.Clone()
	mut.Transactions[3].Tasks[0].WCET = 7.5
	svc := service.New(service.Options{Shards: 1})
	sess := svc.NewSession()
	if _, err := sess.AnalyzeOptions(ctx, base, analysis.Options{Workers: 1, TightBestCase: true}); err != nil {
		t.Fatal(err)
	}
	got, err := sess.AnalyzeOptions(ctx, mut, analysis.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := analysis.NewEngine(analysis.Options{Workers: 1}).Analyze(mut)
	if err != nil {
		t.Fatal(err)
	}
	sameAnalysis(t, got, want)
	if st := svc.Stats(); st.DeltaHits != 0 {
		t.Fatalf("stats = %+v: options mismatch must not delta-seed", st)
	}
}

func TestServiceReset(t *testing.T) {
	ctx := context.Background()
	svc := service.New(service.Options{Shards: 1})
	sys := testSystem(t, 12)
	if _, err := svc.Analyze(ctx, sys); err != nil {
		t.Fatal(err)
	}
	svc.Reset()
	if _, err := svc.Analyze(ctx, sys); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v: Reset must drop the memo (counters preserved)", st)
	}
}

// TestServiceScenariosPruned locks the end-to-end flow of the exact
// sweep's work counters: an exact query's analysis reports its pruned
// scenarios and subtrees and its interference evaluations on the
// Result, the service accumulates all three in Stats, and a memo hit —
// which runs no analysis — adds nothing.
func TestServiceScenariosPruned(t *testing.T) {
	svc := service.New(service.Options{Shards: 1, Analysis: analysis.Options{Exact: true, Workers: 1}})
	sys := experiments.PaperSystem()
	res, err := svc.Analyze(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScenariosPruned <= 0 {
		t.Fatalf("exact analysis pruned %d scenarios, want > 0", res.ScenariosPruned)
	}
	if res.SubtreesPruned <= 0 {
		t.Fatalf("exact analysis pruned %d subtrees, want > 0", res.SubtreesPruned)
	}
	if res.InterferenceEvals <= 0 {
		t.Fatalf("exact analysis evaluated %d interference terms, want > 0", res.InterferenceEvals)
	}
	st := svc.Stats()
	if st.InterferenceEvals != res.InterferenceEvals {
		t.Fatalf("service stats evals %d, result reports %d", st.InterferenceEvals, res.InterferenceEvals)
	}
	if st.ScenariosPruned != res.ScenariosPruned {
		t.Fatalf("service stats pruned %d, result reports %d", st.ScenariosPruned, res.ScenariosPruned)
	}
	if st.SubtreesPruned != res.SubtreesPruned {
		t.Fatalf("service stats subtrees %d, result reports %d", st.SubtreesPruned, res.SubtreesPruned)
	}
	if _, err := svc.Analyze(context.Background(), sys); err != nil {
		t.Fatal(err)
	}
	after := svc.Stats()
	if after.Hits != st.Hits+1 || after.ScenariosPruned != st.ScenariosPruned || after.SubtreesPruned != st.SubtreesPruned ||
		after.InterferenceEvals != st.InterferenceEvals {
		t.Fatalf("memo hit changed the work counters: %+v -> %+v", st, after)
	}
}
