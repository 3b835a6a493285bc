package analysis

import (
	"math"
	"testing"

	"hsched/internal/model"
	"hsched/internal/platform"
)

// seedHeavySystem mirrors the exactHeavySystem shape of the external
// sweep tests: one dedicated platform, per-transaction descending
// priorities, so the low-priority tasks face chainLen^transactions
// exact scenario vectors and every sweep records a critical-scenario
// seed worth reusing.
func seedHeavySystem(transactions, chainLen int) *model.System {
	sys := &model.System{Platforms: []platform.Params{platform.Dedicated()}}
	for i := 0; i < transactions; i++ {
		tr := model.Transaction{
			Period:   1000 + 40*float64(i),
			Deadline: 4000,
		}
		for j := 0; j < chainLen; j++ {
			tr.Tasks = append(tr.Tasks, model.Task{
				WCET: 1 + 0.1*float64(j), BCET: 0.5,
				Priority: transactions - i,
			})
		}
		sys.Transactions = append(sys.Transactions, tr)
	}
	return sys
}

// sameBits fails unless the two results carry bitwise-identical task
// bounds and the same verdict — the package-internal mirror of the
// external resultsIdentical helper.
func sameBits(t *testing.T, want, got *Result) {
	t.Helper()
	if want.Schedulable != got.Schedulable || want.Converged != got.Converged || want.Iterations != got.Iterations {
		t.Fatalf("verdicts differ: want {sched=%v conv=%v it=%d}, got {sched=%v conv=%v it=%d}",
			want.Schedulable, want.Converged, want.Iterations,
			got.Schedulable, got.Converged, got.Iterations)
	}
	for i := range want.Tasks {
		for j := range want.Tasks[i] {
			w, g := want.Tasks[i][j], got.Tasks[i][j]
			if math.Float64bits(w.Worst) != math.Float64bits(g.Worst) ||
				math.Float64bits(w.Best) != math.Float64bits(g.Best) ||
				math.Float64bits(w.Jitter) != math.Float64bits(g.Jitter) {
				t.Fatalf("task (%d,%d): want %+v, got %+v", i, j, w, g)
			}
		}
	}
}

// TestSweepSeedReusedOnRetuning locks the fast path of the cross-probe
// ladder: after a pure WCET retuning — interference shapes intact —
// AnalyzeFrom must re-evaluate the previous probe's critical scenarios
// as incumbent floors (sweepSeeded), not discard them, and still
// reproduce the cold analysis bit for bit.
func TestSweepSeedReusedOnRetuning(t *testing.T) {
	base := seedHeavySystem(4, 4)
	opt := Options{Exact: true, Workers: 1}
	eng := NewEngine(opt)
	prev, err := eng.Analyze(base)
	if err != nil {
		t.Fatal(err)
	}

	mut := base.Clone()
	mut.Transactions[0].Tasks[0].WCET *= 1.1
	got, err := eng.AnalyzeFrom(prev, mut)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.sweepSeeded.Load(); n <= 0 {
		t.Fatalf("WCET retuning seeded %d sweeps, want > 0", n)
	}
	if n := eng.sweepDiscarded.Load(); n != 0 {
		t.Fatalf("WCET retuning discarded %d seeds; the shapes did not change", n)
	}

	cold := opt
	cold.sweep.NoReuse = true
	want, err := NewEngine(cold).Analyze(mut)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, want, got)
}

// TestSweepSeedDiscardedOnShapeChange is the staleness regression: when
// the dirty closure touches a transaction's priorities, the scenario
// axes of the sweeps it interferes with change shape, and the previous
// probe's prune-state summary must be discarded (sweepDiscarded) — a
// stale seed believed across a shape change could under-floor or pin a
// candidate that no longer exists. Results must still match a cold run
// bit for bit.
func TestSweepSeedDiscardedOnShapeChange(t *testing.T) {
	base := seedHeavySystem(4, 4)
	opt := Options{Exact: true, Workers: 1}
	eng := NewEngine(opt)
	prev, err := eng.Analyze(base)
	if err != nil {
		t.Fatal(err)
	}

	mut := base.Clone()
	// Invert transaction 1's internal priority order: every candidate
	// set it contributes changes membership.
	tr := &mut.Transactions[1]
	for j := range tr.Tasks {
		tr.Tasks[j].Priority = 10 + j
	}
	got, err := eng.AnalyzeFrom(prev, mut)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.sweepDiscarded.Load(); n <= 0 {
		t.Fatalf("priority reshape discarded %d stale seeds, want > 0", n)
	}

	cold := opt
	cold.sweep.NoReuse = true
	want, err := NewEngine(cold).Analyze(mut)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, want, got)
}

// TestRoundCopyFastPath: within one fixed-point iteration, a task
// whose own and interfering jitters kept their bitwise values must be
// answered by copying the previous round's TaskResult (roundCopied),
// and the copy must not change any bound.
func TestRoundCopyFastPath(t *testing.T) {
	sys := seedHeavySystem(4, 4)
	opt := Options{Exact: true, Workers: 1}
	eng := NewEngine(opt)
	got, err := eng.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.roundCopied.Load(); n <= 0 {
		t.Fatalf("converging iteration copied %d rounds, want > 0", n)
	}
	cold := opt
	cold.sweep.NoReuse = true
	coldEng := NewEngine(cold)
	want, err := coldEng.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	if n := coldEng.roundCopied.Load(); n != 0 {
		t.Fatalf("NoReuse engine copied %d rounds, want 0", n)
	}
	sameBits(t, want, got)
}
