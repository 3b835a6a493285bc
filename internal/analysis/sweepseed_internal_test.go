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

// TestSweepSeedReusedOnRetuning locks intra-analysis seeding: after a
// WCET retuning, the AnalyzeFrom re-analysis must re-evaluate each
// task's critical scenario of the previous round as the incumbent
// floor of its next sweep (sweepSeeded), hold every round to the naive
// sweep and reproduce the cold analysis bit for bit.
func TestSweepSeedReusedOnRetuning(t *testing.T) {
	base := seedHeavySystem(4, 4)
	opt := Options{Exact: true, Workers: 1}
	eng := newCheckedEngine(t, opt)
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

	want, err := NewEngine(opt).Analyze(mut)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, want, got)
}

// TestRoundCopyFastPath: within one fixed-point iteration, a task
// whose own and interfering jitters kept their bitwise values must be
// answered by copying the previous round's TaskResult (roundCopied),
// and every round, copied tasks included, must equal the naive sweep.
func TestRoundCopyFastPath(t *testing.T) {
	sys := seedHeavySystem(4, 4)
	eng := newCheckedEngine(t, Options{Exact: true, Workers: 1})
	if _, err := eng.Analyze(sys); err != nil {
		t.Fatal(err)
	}
	if n := eng.roundCopied.Load(); n <= 0 {
		t.Fatalf("converging iteration copied %d rounds, want > 0", n)
	}
}

// TestSweepReferenceDetectsMismatch: the naive-sweep check is not
// vacuous — it passes on an analysed round and fails once a task's
// bound or critical scenario is perturbed.
func TestSweepReferenceDetectsMismatch(t *testing.T) {
	for _, exact := range []bool{false, true} {
		eng := NewEngine(Options{Exact: exact, Workers: 1})
		if _, err := eng.AnalyzeStatic(paperSystem()); err != nil {
			t.Fatal(err)
		}
		if n, err := sweepMismatch(eng); err != nil || n == 0 {
			t.Fatalf("exact=%v: checked %d tasks, err %v; want a clean check", exact, n, err)
		}
		cell := &eng.an.slabs[0].round[3]
		saved := *cell
		cell.Worst = math.Nextafter(cell.Worst, math.Inf(1))
		if _, err := sweepMismatch(eng); err == nil {
			t.Fatalf("exact=%v: a perturbed bound passed the check", exact)
		}
		*cell = saved
		cell.CriticalJob++
		if _, err := sweepMismatch(eng); err == nil {
			t.Fatalf("exact=%v: a perturbed critical job passed the check", exact)
		}
	}
}
