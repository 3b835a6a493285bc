package service_test

import (
	"context"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/service"
)

// serviceWork is the service's deterministic work counters.
type serviceWork struct {
	pruned, subtrees, evals int64
}

func workSince(svc *service.Service, before service.Stats) serviceWork {
	st := svc.Stats()
	return serviceWork{
		st.ScenariosPruned - before.ScenariosPruned,
		st.SubtreesPruned - before.SubtreesPruned,
		st.InterferenceEvals - before.InterferenceEvals,
	}
}

// TestServiceColdWorkIndependentOfHistory: on a one-shard service,
// whose analyses all draw from the analysis package's engine pool, a
// sessionless miss adds the same work to the Stats counters whatever
// the service analysed before — an unrelated same-shaped system, or a
// session's delta chain — as the same miss on a fresh service.
func TestServiceColdWorkIndependentOfHistory(t *testing.T) {
	ctx := context.Background()
	draw := func(seed int64) *model.System {
		sys, err := gen.System(gen.Config{
			Seed: seed, Platforms: 1, Transactions: 4, ChainLen: 4,
			PeriodMin: 20, PeriodMax: 400, Utilization: 0.35,
			AlphaMin: 0.5, AlphaMax: 0.9, RandomPriorities: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	for _, workers := range []int{1, 4} {
		opt := service.Options{Shards: 1, Analysis: analysis.Options{Exact: true, Workers: workers}}
		target := draw(19)

		fresh := service.New(opt)
		if _, err := fresh.Analyze(ctx, target); err != nil {
			t.Fatal(err)
		}
		want := workSince(fresh, service.Stats{})

		// An unrelated same-shaped system first.
		svc := service.New(opt)
		if _, err := svc.Analyze(ctx, draw(1019)); err != nil {
			t.Fatal(err)
		}
		before := svc.Stats()
		if _, err := svc.Analyze(ctx, target); err != nil {
			t.Fatal(err)
		}
		if got := workSince(svc, before); got != want {
			t.Errorf("workers=%d: after an unrelated system: work %+v, fresh service %+v", workers, got, want)
		}

		// A session's delta chain of retunings of the target first.
		svc = service.New(opt)
		sess := svc.NewSession()
		for _, scale := range []float64{1.04, 1.02, 0.98} {
			mut := target.Clone()
			for i := range mut.Transactions {
				mut.Transactions[i].Tasks[0].WCET *= scale
			}
			if _, err := sess.Analyze(ctx, mut); err != nil {
				t.Fatal(err)
			}
		}
		before = svc.Stats()
		if _, err := svc.Analyze(ctx, target); err != nil {
			t.Fatal(err)
		}
		if st := svc.Stats(); st.Misses-before.Misses != 1 {
			t.Fatalf("workers=%d: the target query did not miss", workers)
		}
		if got := workSince(svc, before); got != want {
			t.Errorf("workers=%d: after a session chain: work %+v, fresh service %+v", workers, got, want)
		}
	}
}
