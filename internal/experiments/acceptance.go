package experiments

import (
	"context"
	"fmt"
	"runtime"

	"hsched/internal/analysis"
	"hsched/internal/batch"
	"hsched/internal/gen"
	"hsched/internal/service"
)

// AcceptancePoint is one utilisation point of the acceptance-ratio
// sweep.
type AcceptancePoint struct {
	// Utilization is the per-platform demand target of the generated
	// systems.
	Utilization float64
	// Systems is the number of random systems drawn.
	Systems int
	// Approx, Exact and Tight are the fractions of systems deemed
	// schedulable by the approximate analysis, the exact analysis, and
	// the approximate analysis with the per-run best-case refinement.
	Approx, Exact, Tight float64
}

// AcceptanceRatio (ablation A8) draws random multi-platform systems at
// increasing utilisation and reports the fraction each analysis
// variant admits — the classic schedulability curve. The exact
// analysis never admits fewer systems than the approximate one (and
// the sweep enforces that as an invariant); the tight best-case
// refinement sits between them.
func AcceptanceRatio(utils []float64, perPoint int, seed int64) ([]AcceptancePoint, error) {
	return AcceptanceRatioService(utils, perPoint, seed, 0, nil)
}

// acceptanceVariants are the three analysis configurations the sweep
// compares. The engines run sequentially (Workers: 1): the sweep is
// already parallel across systems, so per-round fan-out would only
// oversubscribe the pool.
var acceptanceVariants = struct{ approx, exact, tight analysis.Options }{
	approx: analysis.Options{StopAtDeadlineMiss: true, Workers: 1},
	exact:  analysis.Options{Exact: true, StopAtDeadlineMiss: true, Workers: 1},
	tight:  analysis.Options{TightBestCase: true, StopAtDeadlineMiss: true, Workers: 1},
}

// SweepShards oversizes a sweep service's shard count relative to its
// worker count: every generated system is distinct, so queries land on
// fingerprint-random shards, and with shards == workers balls-in-bins
// collisions would leave workers blocked on each other's stripe run
// locks (a stripe runs one analysis at a time). 4× keeps the
// collision probability low at the cost of a few idle stripes.
func SweepShards(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return 4 * workers
}

// AcceptanceRatioService is AcceptanceRatio routed through an analysis
// service: all workers share svc's stripes and memo, and repeated
// runs over the same seeds (or concurrent duplicate queries) are
// answered from its verdict memo. svc == nil constructs a private
// service sized to the worker count; pass an explicit service to read
// its Stats afterwards (the CLI's -cache flag does).
func AcceptanceRatioService(utils []float64, perPoint int, seed int64, workers int, svc *service.Service) ([]AcceptancePoint, error) {
	type verdicts struct{ approx, exact, tight bool }
	if svc == nil {
		svc = service.New(service.Options{Shards: SweepShards(workers)})
	}
	ctx := context.Background()
	var out []AcceptancePoint
	for _, u := range utils {
		u := u
		// The per-system evaluations are independent; run them on the
		// parallel batch runner. Seeds are fixed per (u, k), so the
		// sweep is deterministic regardless of worker scheduling.
		vs, err := batch.Map(perPoint, batch.Options{Workers: workers}, func(k int) (verdicts, error) {
			sys, err := gen.System(gen.Config{
				Seed:      seed + int64(k) + int64(u*1e6),
				Platforms: 2, Transactions: 3, ChainLen: 3,
				PeriodMin: 20, PeriodMax: 400,
				Utilization: u,
				AlphaMin:    0.4, AlphaMax: 0.9,
			})
			if err != nil {
				return verdicts{}, err
			}
			ap, err := svc.AnalyzeOptions(ctx, sys, acceptanceVariants.approx)
			if err != nil {
				return verdicts{}, err
			}
			ex, err := svc.AnalyzeOptions(ctx, sys, acceptanceVariants.exact)
			if err != nil {
				return verdicts{}, err
			}
			ti, err := svc.AnalyzeOptions(ctx, sys, acceptanceVariants.tight)
			if err != nil {
				return verdicts{}, err
			}
			if ap.Schedulable && !ex.Schedulable {
				return verdicts{}, fmt.Errorf("seed %d at U=%v: approximate admitted a system the exact analysis rejects", seed+int64(k), u)
			}
			return verdicts{approx: ap.Schedulable, exact: ex.Schedulable, tight: ti.Schedulable}, nil
		})
		if err != nil {
			return nil, err
		}
		pt := AcceptancePoint{Utilization: u, Systems: perPoint}
		for _, v := range vs {
			if v.approx {
				pt.Approx++
			}
			if v.exact {
				pt.Exact++
			}
			if v.tight {
				pt.Tight++
			}
		}
		pt.Approx /= float64(perPoint)
		pt.Exact /= float64(perPoint)
		pt.Tight /= float64(perPoint)
		out = append(out, pt)
	}
	return out, nil
}

// RenderAcceptanceRatio formats ablation A8.
func RenderAcceptanceRatio(pts []AcceptancePoint) string {
	header := []string{"utilisation", "systems", "approx", "exact", "tight best-case"}
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.Utilization),
			fmt.Sprintf("%d", p.Systems),
			fmt.Sprintf("%.2f", p.Approx),
			fmt.Sprintf("%.2f", p.Exact),
			fmt.Sprintf("%.2f", p.Tight),
		})
	}
	return renderTable("Ablation A8: acceptance ratio vs per-platform utilisation (random systems)", header, rows)
}
