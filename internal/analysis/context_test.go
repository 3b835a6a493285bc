package analysis_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"hsched/internal/analysis"
	"hsched/internal/gen"
)

// heavyExactConfig generates a single-platform system whose
// uncancelled exact analysis runs for many seconds (more than 12 s
// sequentially on a 2-vCPU Xeon, over many holistic rounds of exact
// sweeps) — long enough that a prompt abort is unambiguous. Size it up
// if the analysis gets faster.
func heavyExactConfig() gen.Config {
	return gen.Config{
		Seed: 5, Platforms: 1, Transactions: 6, ChainLen: 5,
		PeriodMin: 20, PeriodMax: 200, Utilization: 0.55,
		AlphaMin: 0.5, AlphaMax: 0.9, RandomPriorities: true,
	}
}

func TestAnalyzeContextPreCancelled(t *testing.T) {
	sys, err := gen.System(gen.Config{
		Seed: 1, Platforms: 2, Transactions: 3, ChainLen: 3,
		PeriodMin: 20, PeriodMax: 200, Utilization: 0.4,
		AlphaMin: 0.5, AlphaMax: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := analysis.NewEngine(analysis.Options{})
	if _, err := eng.AnalyzeContext(ctx, sys); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeContext with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := eng.AnalyzeStaticContext(ctx, sys); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeStaticContext with cancelled ctx: err = %v, want context.Canceled", err)
	}
	// The engine must stay usable after an aborted call.
	res, err := eng.AnalyzeContext(context.Background(), sys)
	if err != nil {
		t.Fatalf("engine unusable after cancellation: %v", err)
	}
	if res == nil {
		t.Fatal("nil result after recovery")
	}
}

// TestAnalyzeContextAbortsExactAnalysis cancels a multi-second exact
// analysis shortly after it starts and requires it to return a wrapped
// ctx.Err() promptly — the in-scenario polling, not just the
// between-rounds check, is what makes this fast.
func TestAnalyzeContextAbortsExactAnalysis(t *testing.T) {
	sys, err := gen.System(heavyExactConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := analysis.NewEngine(analysis.Options{Exact: true, MaxScenarios: 1 << 28, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())

	type outcome struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		_, err := eng.AnalyzeContext(ctx, sys)
		done <- outcome{err: err, elapsed: time.Since(start)}
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()

	select {
	case out := <-done:
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", out.err)
		}
		// The uncancelled analysis takes many seconds; 5 s leaves huge
		// headroom for race-instrumented and loaded CI machines while
		// still proving the abort happened mid-analysis.
		if out.elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v, want prompt abort", out.elapsed)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("analysis did not return after cancellation")
	}
}

// TestAnalyzeContextMatchesAnalyze checks the context entry point is
// behaviour-identical to the plain one on an uncancelled context.
func TestAnalyzeContextMatchesAnalyze(t *testing.T) {
	sys, err := gen.System(gen.Config{
		Seed: 9, Platforms: 2, Transactions: 4, ChainLen: 3,
		PeriodMin: 20, PeriodMax: 300, Utilization: 0.5,
		AlphaMin: 0.4, AlphaMax: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := analysis.Analyze(sys, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := analysis.AnalyzeContext(context.Background(), sys, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Schedulable != viaCtx.Schedulable || plain.Iterations != viaCtx.Iterations {
		t.Fatalf("verdict mismatch: %+v vs %+v", plain, viaCtx)
	}
	for i := range plain.Tasks {
		for j := range plain.Tasks[i] {
			if plain.Tasks[i][j] != viaCtx.Tasks[i][j] {
				t.Fatalf("task (%d,%d): %+v != %+v", i, j, plain.Tasks[i][j], viaCtx.Tasks[i][j])
			}
		}
	}
}
