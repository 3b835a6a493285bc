package design_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/design"
	"hsched/internal/experiments"
	"hsched/internal/model"
	"hsched/internal/platform"
	"hsched/internal/service"
)

func TestFamilies(t *testing.T) {
	pf := design.PollingFamily(4)
	p := pf(0.25)
	if p.Alpha != 0.25 || p.Delta != 6 || math.Abs(p.Beta-1.5) > 1e-12 {
		t.Errorf("design.PollingFamily(4)(0.25) = %v, want (0.25, 6, 1.5)", p)
	}
	if pf(1) != platform.Dedicated() {
		t.Errorf("design.PollingFamily at α=1 should be dedicated")
	}
	tf := design.TDMAFamily(4)
	p = tf(0.25)
	if p.Alpha != 0.25 || p.Delta != 3 || math.Abs(p.Beta-0.75) > 1e-12 {
		t.Errorf("design.TDMAFamily(4)(0.25) = %v, want (0.25, 3, 0.75)", p)
	}
	qf := design.PfairFamily(0.5)
	p = qf(0.25)
	if p.Alpha != 0.25 || p.Delta != 2 || p.Beta != 0.5 {
		t.Errorf("design.PfairFamily(0.5)(0.25) = %v, want (0.25, 2, 0.5)", p)
	}
}

// TestMinimizePaperExample: the optimiser beats the paper's manual
// provisioning of Σα = 1.0 while staying schedulable, and the final
// parameters verify under an independent analysis call.
func TestMinimizePaperExample(t *testing.T) {
	sys := experiments.PaperSystem()
	fams := []design.Family{design.PollingFamily(0.8333), design.PollingFamily(0.8333), design.PollingFamily(1.25)}
	res, err := design.Minimize(sys, fams, design.Options{})
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if !res.Analysis.Schedulable {
		t.Fatalf("optimum reported unschedulable")
	}
	if res.TotalBandwidth >= 1.0 {
		t.Errorf("total bandwidth %v should beat the paper's 1.0", res.TotalBandwidth)
	}
	// Demand lower bounds: no platform below its raw utilisation.
	low := make([]float64, 3)
	for _, tr := range sys.Transactions {
		for _, task := range tr.Tasks {
			low[task.Platform] += task.WCET / tr.Period
		}
	}
	for m, a := range res.Alphas {
		if a < low[m]-1e-9 {
			t.Errorf("Π%d: α = %v below demand %v", m+1, a, low[m])
		}
	}
	// Independent verification of the returned parameters.
	check := sys.Clone()
	check.Platforms = res.Platforms
	verdict, err := analysis.Analyze(check, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.Schedulable {
		t.Errorf("returned parameters do not verify")
	}
}

// TestMinimizeInfeasible: a system that misses deadlines even on
// dedicated processors is rejected up front.
func TestMinimizeInfeasible(t *testing.T) {
	sys := &model.System{
		Platforms: []platform.Params{platform.Dedicated()},
		Transactions: []model.Transaction{
			{Period: 10, Deadline: 1, Tasks: []model.Task{{WCET: 5, BCET: 5, Priority: 1}}},
		},
	}
	if _, err := design.Minimize(sys, []design.Family{design.PollingFamily(1)}, design.Options{}); err == nil {
		t.Fatalf("infeasible system accepted")
	}
}

// TestMinimizeFamilyCountMismatch: one family per platform is
// mandatory.
func TestMinimizeFamilyCountMismatch(t *testing.T) {
	sys := experiments.PaperSystem()
	if _, err := design.Minimize(sys, []design.Family{design.PollingFamily(1)}, design.Options{}); err == nil {
		t.Fatalf("family count mismatch accepted")
	}
}

// TestMinimizeDoesNotMutateInput: the caller's platforms are left
// untouched.
func TestMinimizeDoesNotMutateInput(t *testing.T) {
	sys := experiments.PaperSystem()
	before := sys.Platforms[2]
	fams := []design.Family{design.PollingFamily(0.8333), design.PollingFamily(0.8333), design.PollingFamily(1.25)}
	if _, err := design.Minimize(sys, fams, design.Options{Tolerance: 1e-2}); err != nil {
		t.Fatal(err)
	}
	if sys.Platforms[2] != before {
		t.Errorf("input platforms mutated")
	}
}

// TestTDMADominatesPollingAtEqualBandwidth: at equal frame/period and
// equal bandwidth, a fixed TDMA slot has half the delay of a floating
// periodic server, so any bandwidth vector feasible under polling
// servers stays feasible when the platforms are swapped for TDMA
// partitions. (Comparing the two heuristic optima directly would not
// be sound — coordinate descent may land in different local optima.)
func TestTDMADominatesPollingAtEqualBandwidth(t *testing.T) {
	sys := experiments.PaperSystem()
	periods := []float64{0.8333, 0.8333, 1.25}
	var polls, tdmas []design.Family
	for _, p := range periods {
		polls = append(polls, design.PollingFamily(p))
		tdmas = append(tdmas, design.TDMAFamily(p))
	}
	pollRes, err := design.Minimize(sys, polls, design.Options{})
	if err != nil {
		t.Fatal(err)
	}
	swap := sys.Clone()
	for m, a := range pollRes.Alphas {
		swap.Platforms[m] = tdmas[m](a)
	}
	verdict, err := analysis.Analyze(swap, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.Schedulable {
		t.Errorf("TDMA platforms at the polling-feasible bandwidths %v are not schedulable", pollRes.Alphas)
	}
}

// coldOracle returns analysis options whose no-op Recorder makes every
// feasibility probe skip the service's memo, in-flight table and
// session seed: the unmemoised, cold reference search.
func coldOracle() analysis.Options {
	return analysis.Options{Recorder: func(int, *analysis.Result) {}}
}

// TestMinimizeCacheReducesAnalyses: routed through a shared analysis
// service, the search's revisited parameter points are answered by the
// verdict memo — same optimum, measurably fewer engine analyses than
// the cold reference search, whose probes skip the memo.
func TestMinimizeCacheReducesAnalyses(t *testing.T) {
	sys := experiments.PaperSystem()
	fams := []design.Family{design.PollingFamily(0.8333), design.PollingFamily(0.8333), design.PollingFamily(1.25)}

	cached := service.New(service.Options{Shards: 1})
	resOn, err := design.Minimize(sys, fams, design.Options{Service: cached})
	if err != nil {
		t.Fatal(err)
	}
	uncached := service.New(service.Options{Shards: 1})
	resOff, err := design.Minimize(sys, fams, design.Options{Service: uncached, Analysis: coldOracle()})
	if err != nil {
		t.Fatal(err)
	}

	for m := range resOn.Alphas {
		if resOn.Alphas[m] != resOff.Alphas[m] {
			t.Fatalf("optimum differs with cache on/off: %v vs %v", resOn.Alphas, resOff.Alphas)
		}
	}
	on, off := cached.Stats(), uncached.Stats()
	if on.Queries != off.Queries {
		t.Fatalf("query counts differ: %d vs %d (the search should be oblivious to caching)", on.Queries, off.Queries)
	}
	if off.Hits != 0 || off.Misses != off.Queries {
		t.Fatalf("uncached service stats inconsistent: %+v", off)
	}
	if on.Hits == 0 || on.Misses >= off.Misses {
		t.Fatalf("memo ineffective: cached %+v vs uncached %+v", on, off)
	}
	t.Logf("design search: %d oracle queries, %d analyses with memo vs %d without (%.0f%% saved)",
		on.Queries, on.Misses, off.Misses, 100*float64(off.Misses-on.Misses)/float64(off.Misses))
}

// TestMinimizeDeltaPath: the feasibility oracle's probes are chains of
// one-platform-apart systems, which the service routes through the
// incremental analysis — measurably fewer task-rounds computed, same
// optimum as the cold reference search.
func TestMinimizeDeltaPath(t *testing.T) {
	sys := experiments.PaperSystem()
	fams := []design.Family{design.PollingFamily(0.8333), design.PollingFamily(0.8333), design.PollingFamily(1.25)}

	delta := service.New(service.Options{Shards: 1})
	resOn, err := design.Minimize(sys, fams, design.Options{Service: delta})
	if err != nil {
		t.Fatal(err)
	}
	cold := service.New(service.Options{Shards: 1})
	resOff, err := design.Minimize(sys, fams, design.Options{Service: cold, Analysis: coldOracle()})
	if err != nil {
		t.Fatal(err)
	}
	for m := range resOn.Alphas {
		if resOn.Alphas[m] != resOff.Alphas[m] {
			t.Fatalf("optimum differs with delta on/off: %v vs %v — the incremental path must be invisible", resOn.Alphas, resOff.Alphas)
		}
	}
	on := delta.Stats()
	if on.DeltaHits == 0 {
		t.Fatalf("stats = %+v: the search's one-platform-apart probes never ran incrementally", on)
	}
	if on.RoundsSaved <= 0 {
		t.Fatalf("stats = %+v: RoundsSaved must be positive for a delta-assisted search", on)
	}
	t.Logf("design search: %d analyses, %d incremental, %d task-rounds saved",
		on.Misses, on.DeltaHits, on.RoundsSaved)
}

// TestMinimizeContextCancelled: a cancelled context aborts the search
// — including against a warm shared service, where every oracle probe
// would otherwise be answered by the memo without ever observing the
// context.
func TestMinimizeContextCancelled(t *testing.T) {
	sys := experiments.PaperSystem()
	fams := []design.Family{design.PollingFamily(0.8333), design.PollingFamily(0.8333), design.PollingFamily(1.25)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := design.MinimizeContext(ctx, sys, fams, design.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	svc := service.New(service.Options{Shards: 1})
	if _, err := design.MinimizeContext(context.Background(), sys, fams, design.Options{Service: svc}); err != nil {
		t.Fatalf("warm-up search: %v", err)
	}
	if _, err := design.MinimizeContext(ctx, sys, fams, design.Options{Service: svc}); !errors.Is(err, context.Canceled) {
		t.Fatalf("warm service: err = %v, want context.Canceled", err)
	}
}
