package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"hsched/internal/gen"
	"hsched/internal/model"
)

// slowApproxSystem generates a system whose approximate holistic
// analysis runs for hundreds of milliseconds over tens of fixed-point
// rounds (about 0.55 s sequential on a 2-vCPU Xeon) — slow enough that
// a tens-of-milliseconds deadline provably expires in the middle of
// the iteration, fast enough that the test's follow-up full recompute
// stays affordable even under -race. Size it up if the analysis gets
// faster.
func slowApproxSystem(t *testing.T) *model.System {
	t.Helper()
	sys, err := gen.System(gen.Config{
		Seed: 11, Platforms: 4, Transactions: 50, ChainLen: 10,
		PeriodMin: 50, PeriodMax: 1000, Utilization: 0.65,
		AlphaMin: 0.5, AlphaMax: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestDeadlineMidAnalysisDoesNotPoison: a query whose context deadline
// expires mid-fixed-point must leave no trace in the verdict memo (a
// later identical query would otherwise be answered with a
// half-converged result). The follow-up identical query must recompute
// from scratch and succeed. TestDeadlineMidAnalysisSessionSeed covers
// the session's pinned seed.
func TestDeadlineMidAnalysisDoesNotPoison(t *testing.T) {
	sys := slowApproxSystem(t)
	svc := New(Options{Shards: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	if _, err := svc.Analyze(ctx, sys); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadlined analysis: err = %v, want wrapped context.DeadlineExceeded", err)
	}

	// The identical query recomputes — a miss, not a hit off a
	// poisoned memo entry — and succeeds.
	res, err := svc.Analyze(context.Background(), sys)
	if err != nil {
		t.Fatalf("follow-up identical query: %v", err)
	}
	if !res.Converged {
		t.Fatal("follow-up result did not converge")
	}
	st := svc.Stats()
	if st.Queries != 2 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats after failed+recomputed query: %+v, want 2 queries, 2 misses, 0 hits", st)
	}

	// Only now is the memo warm: a third identical query shares the
	// recomputed result.
	again, err := svc.Analyze(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	if again != res {
		t.Fatal("third query did not hit the memo entry of the recomputed result")
	}
	if st = svc.Stats(); st.Hits != 1 {
		t.Fatalf("stats after third query: %+v, want 1 hit", st)
	}
}

// TestDeadlineMidAnalysisSessionSeed: the same property through a
// probe session — an aborted probe must not pin a partial result as
// the session's delta seed, and the next probe recomputes cleanly.
func TestDeadlineMidAnalysisSessionSeed(t *testing.T) {
	sys := slowApproxSystem(t)
	svc := New(Options{Shards: 1})
	sess := svc.NewSession()

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	if _, err := sess.Analyze(ctx, sys); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadlined probe: err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if seed := sess.currentSeed(); seed != nil {
		t.Fatal("aborted probe pinned a seed")
	}

	res, err := sess.Analyze(context.Background(), sys)
	if err != nil {
		t.Fatalf("follow-up probe: %v", err)
	}
	if !res.Converged {
		t.Fatal("follow-up probe did not converge")
	}
	ss := sess.Stats()
	if ss.Probes != 2 || ss.Executed != 2 || ss.MemoHits != 0 {
		t.Fatalf("session stats: %+v, want 2 probes, 2 executed, 0 memo hits", ss)
	}

	// The successful probe pinned its result: a one-edit probe chains
	// through the session's incremental path.
	mut := sys.Clone()
	mut.Transactions[1].Tasks[0].WCET *= 1.01
	mres, err := sess.Analyze(context.Background(), mut)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Delta == nil {
		t.Fatal("chained probe did not ride the pinned seed")
	}
}
