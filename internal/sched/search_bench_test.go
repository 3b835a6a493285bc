package sched

import (
	"context"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/service"
)

// exactSearchSystem draws the exact-search benchmark workload: one
// platform (maximal same-platform interference, the regime where the
// exact scenario product of Eq. 12 grows) with enough tasks that one
// Audsley search issues tens of exact-oracle probes.
func exactSearchSystem(tb testing.TB) *gen.Config {
	tb.Helper()
	return &gen.Config{
		Seed: 7, Platforms: 1, Transactions: 3, ChainLen: 3,
		PeriodMin: 20, PeriodMax: 400, Utilization: 0.5,
		AlphaMin: 0.5, AlphaMax: 0.9,
		RandomPriorities: true,
	}
}

// BenchmarkExactSearch measures one whole Audsley search with the
// exact oracle: tens of probes, each a branch-and-bound exact sweep,
// all routed through one probe session so consecutive one-move-apart
// probes replay each other's unreached tasks (delta path) and revisits
// hit the verdict memo.
func BenchmarkExactSearch(b *testing.B) {
	cfg := exactSearchSystem(b)
	sys, err := gen.System(*cfg)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, opt analysis.Options) {
		b.Helper()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh service per search: the benchmark measures the
			// search (and its intra-search session reuse), not the
			// steady-state memo answering repeated identical searches.
			svc := service.New(service.Options{Shards: 1, Analysis: opt})
			work := sys.Clone()
			if _, _, err := Assign(ctx, work, PolicyAudsley, AssignOptions{
				Analysis: opt,
				Service:  svc,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("session-reuse", func(b *testing.B) {
		run(b, analysis.Options{Exact: true, Workers: 1})
	})
}

// audsleySearchSystems draws the assign-search benchmark shape: two
// platforms, four three-task chains, the verdict-only oracle of a
// design tool. A fixed cycle of seeds spreads the measurement over
// searches of different lengths instead of timing one system.
func audsleySearchSystems(tb testing.TB) []*model.System {
	tb.Helper()
	out := make([]*model.System, 16)
	for k := range out {
		sys, err := gen.System(gen.Config{
			Seed: int64(1 + k), Platforms: 2, Transactions: 4, ChainLen: 3,
			PeriodMin: 20, PeriodMax: 400, Utilization: 0.4, AlphaMin: 0.4, AlphaMax: 0.9,
		})
		if err != nil {
			tb.Fatal(err)
		}
		out[k] = sys
	}
	return out
}

// BenchmarkAudsleySearch measures one whole Audsley search with the
// approximate oracle capped at 32 holistic rounds per probe, through a
// fresh single-shard service per search: the per-request work of a
// served priority search.
func BenchmarkAudsleySearch(b *testing.B) {
	systems := audsleySearchSystems(b)
	opt := analysis.Options{MaxIterations: 32, Workers: 1}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := service.New(service.Options{Shards: 1, Analysis: opt})
		work := systems[i%len(systems)].Clone()
		if _, _, err := Assign(ctx, work, PolicyAudsley, AssignOptions{Analysis: opt, Service: svc}); err != nil {
			b.Fatal(err)
		}
	}
}
