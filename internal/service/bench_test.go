package service_test

import (
	"context"
	"sync/atomic"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/service"
)

func benchSystem(b *testing.B) *model.System {
	b.Helper()
	sys, err := gen.System(gen.Config{
		Seed: 11, Platforms: 3, Transactions: 12, ChainLen: 4,
		PeriodMin: 10, PeriodMax: 1000, Utilization: 0.4,
		AlphaMin: 0.4, AlphaMax: 0.9,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkServiceHit measures a memoised query: fingerprint + memo
// lookup, no analysis. Compare against BenchmarkServiceMiss for the
// memo's win on repeated queries.
func BenchmarkServiceHit(b *testing.B) {
	ctx := context.Background()
	sys := benchSystem(b)
	svc := service.New(service.Options{Analysis: analysis.Options{Workers: 1}})
	if _, err := svc.Analyze(ctx, sys); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Analyze(ctx, sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceMiss measures the cold path: every query carries a
// fingerprint the service has not seen (one WCET nudged by a
// different amount), so it misses the memo and runs a full analysis on
// a pooled engine (the warm-engine cost, i.e. the cheapest possible
// non-memoised analysis — the hit/miss ratio is therefore a lower
// bound on the memo's real-world win). The systems are built before
// the timer starts.
func BenchmarkServiceMiss(b *testing.B) {
	ctx := context.Background()
	base := benchSystem(b)
	systems := make([]*model.System, b.N)
	for i := range systems {
		systems[i] = base.Clone()
		systems[i].Transactions[0].Tasks[0].WCET += float64(i+1) * 1e-9
	}
	svc := service.New(service.Options{Analysis: analysis.Options{Workers: 1}})
	b.ReportAllocs()
	b.ResetTimer()
	for _, sys := range systems {
		if _, err := svc.Analyze(ctx, sys); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := svc.Stats(); st.Misses != int64(b.N) || st.DeltaHits != 0 {
		b.Fatalf("stats = %+v: every query must miss and run cold, not replay", st)
	}
}

// BenchmarkServiceHitParallel measures the pure contended hit path:
// every query after warm-up is a memo hit, issued from 4 goroutines
// per P (16 at -cpu 4) over a small population so the stripes all see
// traffic. This is the benchmark the lock-striping work is gated on —
// run it as
//
//	GOMAXPROCS=4 go test -run=NONE -bench=ServiceHitParallel -cpu 4 ./internal/service
//
// before and after a change to the hit path.
func BenchmarkServiceHitParallel(b *testing.B) {
	ctx := context.Background()
	systems := make([]*model.System, 8)
	for k := range systems {
		sys, err := gen.System(gen.Config{
			Seed: int64(20 + k), Platforms: 2, Transactions: 3, ChainLen: 3,
			PeriodMin: 20, PeriodMax: 300, Utilization: 0.45,
			AlphaMin: 0.4, AlphaMax: 0.9,
		})
		if err != nil {
			b.Fatal(err)
		}
		systems[k] = sys
	}
	svc := service.New(service.Options{Shards: 4, Analysis: analysis.Options{Workers: 1}})
	for _, sys := range systems {
		if _, err := svc.Analyze(ctx, sys); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	var firstErr atomic.Value
	b.RunParallel(func(pb *testing.PB) {
		k := 0
		for pb.Next() {
			if _, err := svc.Analyze(ctx, systems[k%len(systems)]); err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			k++
		}
	})
	if err := firstErr.Load(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServiceConcurrent measures service throughput under
// contended parallel load with a high hit rate — the admission-control
// traffic shape.
func BenchmarkServiceConcurrent(b *testing.B) {
	ctx := context.Background()
	systems := make([]*model.System, 8)
	for k := range systems {
		sys, err := gen.System(gen.Config{
			Seed: int64(20 + k), Platforms: 2, Transactions: 3, ChainLen: 3,
			PeriodMin: 20, PeriodMax: 300, Utilization: 0.45,
			AlphaMin: 0.4, AlphaMax: 0.9,
		})
		if err != nil {
			b.Fatal(err)
		}
		systems[k] = sys
	}
	svc := service.New(service.Options{Analysis: analysis.Options{Workers: 1}})
	b.ReportAllocs()
	b.ResetTimer()
	// b.Fatal must not be called from RunParallel's worker goroutines;
	// stage the first error and fail after the parallel section.
	var firstErr atomic.Value
	b.RunParallel(func(pb *testing.PB) {
		k := 0
		for pb.Next() {
			if _, err := svc.Analyze(ctx, systems[k%len(systems)]); err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			k++
		}
	})
	if err := firstErr.Load(); err != nil {
		b.Fatal(err)
	}
}
