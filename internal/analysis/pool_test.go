package analysis_test

import (
	"context"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/model"
)

// TestPackageAnalyzeReusesEngine: the package-level entry points draw
// their engine from a pool, so after one warm-up call AnalyzeContext
// allocates about what a reused Engine.AnalyzeContext does on the same
// system, not the cost of building a fresh engine's buffers. The 2×
// slack absorbs a GC emptying the pool mid-run.
func TestPackageAnalyzeReusesEngine(t *testing.T) {
	if analysis.RaceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc counts are meaningless")
	}
	ctx := context.Background()
	sys := exactColdSystem(t, 1)
	opt := analysis.Options{Exact: true, Workers: 1}
	eng := analysis.NewEngine(opt)
	run := func(analyze func() (*analysis.Result, error)) func() {
		return func() {
			if _, err := analyze(); err != nil {
				t.Fatal(err)
			}
		}
	}
	reusedRun := run(func() (*analysis.Result, error) { return eng.AnalyzeContext(ctx, sys) })
	pooledRun := run(func() (*analysis.Result, error) { return analysis.AnalyzeContext(ctx, sys, opt) })
	reusedRun()
	pooledRun()
	reused := testing.AllocsPerRun(50, reusedRun)
	pooled := testing.AllocsPerRun(50, pooledRun)
	t.Logf("allocs/op: package-level %.1f, reused Engine %.1f", pooled, reused)
	if pooled > 2*reused {
		t.Errorf("package-level AnalyzeContext allocates %.1f/op, a reused Engine %.1f/op: want at most 2×", pooled, reused)
	}
}

// TestPackageAnalyzeOptionsIsolated: package-level calls interleaved
// on one goroutine under different options each report exactly what a
// fresh engine built with the call's options reports — bounds, verdict
// and work counts — so a pooled engine keeps nothing of the previous
// call's options. A Recorder passed to one call never fires during a
// later call.
func TestPackageAnalyzeOptionsIsolated(t *testing.T) {
	ctx := context.Background()
	current := -1 // index of the call in flight
	recorded, missed := 0, 0
	recorder := func(call int) func(int, *analysis.Result) {
		return func(int, *analysis.Result) {
			if call != current {
				t.Errorf("the Recorder of call %d fired during call %d", call, current)
			}
			recorded++
		}
	}
	opts := []analysis.Options{
		{Exact: true, Workers: 1},
		{Workers: 1},
		{TightBestCase: true, Workers: 4},
		{StopAtDeadlineMiss: true, Workers: 1},
		{Exact: true, Workers: 4},
		{Workers: 4, Recorder: recorder(-2)}, // replaced per call below
		{Exact: true, TightBestCase: true, StopAtDeadlineMiss: true, Workers: 1},
	}
	var systems []*model.System
	for _, seed := range []int64{3, 4} {
		sys := exactColdSystem(t, seed)
		// Tight deadlines make StopAtDeadlineMiss end early.
		tight := sys.Clone()
		for i := range tight.Transactions {
			tight.Transactions[i].Deadline *= 0.3
		}
		systems = append(systems, sys, tight)
	}

	call := 0
	for _, sys := range systems {
		for _, static := range []bool{false, true} {
			for _, opt := range opts {
				ref := opt
				if opt.Recorder != nil {
					opt.Recorder = recorder(call)
					ref.Recorder = func(int, *analysis.Result) {}
				}
				var want, got *analysis.Result
				var err error
				if static {
					want, err = analysis.NewEngine(ref).AnalyzeStatic(sys)
				} else {
					want, err = analysis.NewEngine(ref).Analyze(sys)
				}
				if err != nil {
					t.Fatal(err)
				}
				current = call
				if static {
					got, err = analysis.AnalyzeStaticContext(ctx, sys, opt)
				} else {
					got, err = analysis.AnalyzeContext(ctx, sys, opt)
				}
				current = -1
				call++
				if err != nil {
					t.Fatal(err)
				}
				if !resultsIdentical(got, want) {
					t.Fatalf("call %d (static=%v, %+v): result differs from a fresh engine's", call-1, static, opt)
				}
				if opt.StopAtDeadlineMiss && !got.Schedulable {
					missed++
				}
				if workOf(got) != workOf(want) {
					t.Errorf("call %d (static=%v, %+v): work %+v, fresh engine %+v",
						call-1, static, opt, workOf(got), workOf(want))
				}
			}
		}
	}
	if recorded == 0 || missed == 0 {
		t.Fatalf("%d Recorder callbacks and %d StopAtDeadlineMiss misses, want both > 0", recorded, missed)
	}
}
