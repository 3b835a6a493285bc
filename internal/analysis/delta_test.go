package analysis_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/experiments"
	"hsched/internal/gen"
	"hsched/internal/model"
	"hsched/internal/platform"
)

// mutateOnce applies one admission-control-style edit to a clone of
// sys: retune one task of one transaction, retune one platform, add or
// remove one transaction, rename, or permute. Every op keeps the
// system valid.
func mutateOnce(rng *rand.Rand, sys *model.System) *model.System {
	return mutateOp(rng, sys, rng.Intn(mutateOps))
}

// mutateOps is the number of edits mutateOp knows.
const mutateOps = 9

// mutateOp applies edit op (0 ≤ op < mutateOps) of mutateOnce to a
// clone of sys, drawing its parameters from rng.
func mutateOp(rng *rand.Rand, sys *model.System, op int) *model.System {
	out := sys.Clone()
	pick := func(n int) int { return rng.Intn(n) }
	tx := func() *model.Transaction { return &out.Transactions[pick(len(out.Transactions))] }
	switch op {
	case 0: // retune one task's WCET
		tr := tx()
		t := &tr.Tasks[pick(len(tr.Tasks))]
		t.WCET = math.Max(t.BCET, t.WCET*(0.8+0.4*rng.Float64()))
		if t.WCET == 0 {
			t.WCET = 0.1
		}
	case 1: // retune one task's BCET
		tr := tx()
		t := &tr.Tasks[pick(len(tr.Tasks))]
		t.BCET = t.WCET * rng.Float64()
	case 2: // shift one task's priority
		tr := tx()
		tr.Tasks[pick(len(tr.Tasks))].Priority += pick(3) - 1
	case 3: // retune one platform's bandwidth
		p := &out.Platforms[pick(len(out.Platforms))]
		p.Alpha = math.Min(1, math.Max(0.05, p.Alpha*(0.9+0.2*rng.Float64())))
	case 4: // add one low-priority background transaction
		out.Transactions = append(out.Transactions, model.Transaction{
			Name: "added", Period: 40 + 20*rng.Float64(), Deadline: 60,
			Tasks: []model.Task{{
				WCET: 0.5 + rng.Float64(), BCET: 0.25,
				Priority: -1 - pick(3), Platform: pick(len(out.Platforms)),
			}},
		})
		out.Transactions[len(out.Transactions)-1].Deadline = out.Transactions[len(out.Transactions)-1].Period
	case 5: // remove one transaction
		if len(out.Transactions) > 1 {
			k := pick(len(out.Transactions))
			out.Transactions = append(out.Transactions[:k], out.Transactions[k+1:]...)
		}
	case 6: // rename (analysis-irrelevant)
		tr := tx()
		tr.Name += "'"
		tr.Tasks[pick(len(tr.Tasks))].Name += "'"
	case 7: // permute two transactions (forces the cold fallback)
		if len(out.Transactions) > 1 {
			a, b := pick(len(out.Transactions)), pick(len(out.Transactions))
			out.Transactions[a], out.Transactions[b] = out.Transactions[b], out.Transactions[a]
		}
	case 8: // retune the external release offset/jitter of a first task
		tr := tx()
		tr.Tasks[0].Offset = 2 * rng.Float64()
		tr.Tasks[0].Jitter = rng.Float64()
	}
	return out
}

// priorityProbe is the Audsley search's probe pair on a clone of sys:
// one task moves to a provisional top priority, above every task on its
// platform, and then to a level between the lowest priority on the
// platform and the top.
func priorityProbe(rng *rand.Rand, sys *model.System) (top, placed *model.System) {
	top = sys.Clone()
	i := rng.Intn(len(top.Transactions))
	j := rng.Intn(len(top.Transactions[i].Tasks))
	moved := &top.Transactions[i].Tasks[j]
	lo, hi := moved.Priority, moved.Priority
	for _, tr := range top.Transactions {
		for _, t := range tr.Tasks {
			if t.Platform == moved.Platform {
				lo, hi = min(lo, t.Priority), max(hi, t.Priority)
			}
		}
	}
	moved.Priority = hi + 1
	placed = top.Clone()
	placed.Transactions[i].Tasks[j].Priority = lo + rng.Intn(hi-lo+2)
	return top, placed
}

// TestAnalyzeFromBitIdentical is the delta path's metamorphic
// contract: over randomized sequences of single mutations, chaining
// each warm result as the next seed, AnalyzeFrom must produce results
// bit-identical to a cold Analyze of the mutated system — all tasks'
// bounds, critical scenarios, iteration counts and verdicts — under
// several analysis option sets. Beside the chain, every step's system
// also takes a priority probe pair (priorityProbe), each probe seeded
// by the result before it, as an Audsley search's session would.
func TestAnalyzeFromBitIdentical(t *testing.T) {
	variants := map[string]analysis.Options{
		"approx": {Workers: 1, MaxIterations: 60},
		"tight":  {Workers: 1, MaxIterations: 60, TightBestCase: true},
		"stop":   {Workers: 1, MaxIterations: 60, StopAtDeadlineMiss: true},
		"exact":  {Workers: 1, MaxIterations: 60, Exact: true},
	}
	for name, opt := range variants {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			probeRng := rand.New(rand.NewSource(11))
			steps := 40
			if opt.Exact {
				steps = 16 // exact sweeps are slower; a shorter chain suffices
			}
			seeded, probeSeeded := 0, 0
			for base := 0; base < 3; base++ {
				sys, err := gen.System(gen.Config{
					Seed:      int64(300 + base),
					Platforms: 2, Transactions: 3, ChainLen: 3,
					PeriodMin: 20, PeriodMax: 300,
					Utilization: 0.35 + 0.1*float64(base),
					AlphaMin:    0.4, AlphaMax: 0.9,
				})
				if err != nil {
					t.Fatal(err)
				}
				warmEng := analysis.NewEngine(opt)
				prev, err := warmEng.Analyze(sys)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < steps; step++ {
					sys = mutateOnce(rng, sys)
					cold, err := analysis.NewEngine(opt).Analyze(sys)
					if err != nil {
						t.Fatalf("step %d cold: %v", step, err)
					}
					warm, err := warmEng.AnalyzeFrom(prev, sys)
					if err != nil {
						t.Fatalf("step %d warm: %v", step, err)
					}
					if !resultsIdentical(cold, warm) {
						t.Fatalf("step %d: AnalyzeFrom diverged from cold analysis (delta=%+v)", step, warm.Delta)
					}
					if warm.Delta != nil {
						seeded++
						if warm.Delta.CleanTasks == 0 || warm.Delta.TaskRoundsSaved < 0 {
							t.Fatalf("step %d: nonsense delta info %+v", step, warm.Delta)
						}
					}
					top, placed := priorityProbe(probeRng, sys)
					probePrev := warm
					for k, ps := range []*model.System{top, placed} {
						cold, err := analysis.NewEngine(opt).Analyze(ps)
						if err != nil {
							t.Fatalf("step %d probe %d cold: %v", step, k, err)
						}
						got, err := warmEng.AnalyzeFrom(probePrev, ps)
						if err != nil {
							t.Fatalf("step %d probe %d warm: %v", step, k, err)
						}
						if !resultsIdentical(cold, got) {
							t.Fatalf("step %d probe %d: AnalyzeFrom diverged from cold analysis (delta=%+v)", step, k, got.Delta)
						}
						if got.Delta != nil {
							probeSeeded++
						}
						probePrev = got
					}
					prev = warm
				}
			}
			if seeded == 0 || probeSeeded == 0 {
				t.Fatalf("the delta path never engaged over the whole mutation chain (%d steps, %d probes) — test is vacuous",
					seeded, probeSeeded)
			}
			t.Logf("%s: %d of the mutation steps and %d of the probes ran incrementally", name, seeded, probeSeeded)
		})
	}
}

// TestAnalyzeFromPaperMutation pins the canonical admission-control
// win on the paper example: retuning the background load Γ4 (lowest
// priority on Π3) dirties exactly that one task, so six of the seven
// tasks replay — at least the 3× work reduction the delta path is
// there for.
func TestAnalyzeFromPaperMutation(t *testing.T) {
	opt := analysis.Options{Workers: 1}
	base := experiments.PaperSystem()
	eng := analysis.NewEngine(opt)
	prev, err := eng.Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	if !prev.HasReplayState() {
		t.Fatal("dynamic result carries no replay state")
	}

	mut := base.Clone()
	mut.Transactions[3].Tasks[0].WCET = 7.5 // retune Γ4's background load
	cold, err := analysis.NewEngine(opt).Analyze(mut)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.AnalyzeFrom(prev, mut)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(cold, warm) {
		t.Fatal("incremental result differs from cold analysis")
	}
	if warm.Delta == nil {
		t.Fatal("delta path did not engage")
	}
	if warm.Delta.CleanTasks != 6 || warm.Delta.DirtyTasks != 1 {
		t.Fatalf("clean/dirty = %d/%d, want 6/1 (only τ4,1 is reachable from the edit)",
			warm.Delta.CleanTasks, warm.Delta.DirtyTasks)
	}
	// The structural form of the ≥3× acceptance bar: the incremental
	// analysis must run at most a third of the per-task response
	// computations the cold analysis runs. (BenchmarkDeltaPaper* shows
	// the wall-clock counterpart.)
	total := cold.Iterations * 7
	computed := total - warm.Delta.TaskRoundsSaved
	if computed*3 > total {
		t.Fatalf("incremental path computed %d of %d task-rounds — less than the required 3x reduction", computed, total)
	}
}

// twoIslandSystem builds a system of two platform-disjoint groups of
// transactions, each large enough that a round over one group alone
// exceeds the engine's parallel fan-out threshold. Mutating a group-A
// transaction dirties (at most) all of group A while all of group B
// replays — exercising the batch.Map branch of a delta round, which
// no small-system test reaches.
func twoIslandSystem() *model.System {
	sys := &model.System{
		Platforms: []platform.Params{
			{Alpha: 0.9, Delta: 0.5, Beta: 0.5}, {Alpha: 0.9, Delta: 0.5, Beta: 0.5}, // group A
			{Alpha: 0.9, Delta: 0.5, Beta: 0.5}, {Alpha: 0.9, Delta: 0.5, Beta: 0.5}, // group B
		},
	}
	for g := 0; g < 2; g++ {
		for k := 0; k < 8; k++ {
			period := float64(100 + 20*k + 300*g)
			tr := model.Transaction{
				Name: fmt.Sprintf("G%d-%d", g, k), Period: period, Deadline: period,
			}
			for j := 0; j < 3; j++ {
				tr.Tasks = append(tr.Tasks, model.Task{
					WCET: 0.5 + 0.1*float64((k+j)%4), BCET: 0.25,
					Priority: (k + j) % 5, Platform: 2*g + (k+j)%2,
				})
			}
			sys.Transactions = append(sys.Transactions, tr)
		}
	}
	return sys
}

// TestAnalyzeFromParallelRounds: the acceptance criterion demands
// bit-identical incremental results for all worker counts, including
// rounds big enough to fan out onto batch.Map with a dirty work-list.
func TestAnalyzeFromParallelRounds(t *testing.T) {
	base := twoIslandSystem()
	mut := base.Clone()
	mut.Transactions[2].Tasks[1].WCET *= 1.3 // group A: dirties (up to) 24 tasks, group B replays

	cold, err := analysis.NewEngine(analysis.Options{Workers: 1}).Analyze(mut)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		eng := analysis.NewEngine(analysis.Options{Workers: workers})
		prev, err := eng.Analyze(base)
		if err != nil {
			t.Fatalf("workers=%d base: %v", workers, err)
		}
		warm, err := eng.AnalyzeFrom(prev, mut)
		if err != nil {
			t.Fatalf("workers=%d warm: %v", workers, err)
		}
		if warm.Delta == nil {
			t.Fatalf("workers=%d: delta path did not engage", workers)
		}
		if warm.Delta.DirtyTasks < 16 {
			t.Fatalf("workers=%d: only %d dirty tasks — the parallel round branch is not exercised (fixture miscalibrated)",
				workers, warm.Delta.DirtyTasks)
		}
		if warm.Delta.CleanTasks < 24 {
			t.Fatalf("workers=%d: only %d clean tasks — group B should replay entirely", workers, warm.Delta.CleanTasks)
		}
		if !resultsIdentical(cold, warm) {
			t.Fatalf("workers=%d: parallel incremental result differs from sequential cold analysis", workers)
		}
	}
}

// TestAnalyzeFromPaperAdmission mirrors the admission benchmark:
// admitting a lowest-priority background transaction dirties only the
// admitted task, every original task replays, and the result matches a
// cold analysis bit for bit.
func TestAnalyzeFromPaperAdmission(t *testing.T) {
	opt := analysis.Options{Workers: 1}
	eng := analysis.NewEngine(opt)
	prev, err := eng.Analyze(experiments.PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	mut := paperAdmission()
	cold, err := analysis.NewEngine(opt).Analyze(mut)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.AnalyzeFrom(prev, mut)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(cold, warm) {
		t.Fatal("admission incremental result differs from cold analysis")
	}
	if warm.Delta == nil || warm.Delta.CleanTasks != 7 || warm.Delta.DirtyTasks != 1 {
		t.Fatalf("delta = %+v, want 7 clean / 1 dirty", warm.Delta)
	}
	t.Logf("admission: iterations=%d replayed=%d saved=%d (baseline recorded %d rounds)",
		warm.Iterations, warm.Delta.ReplayedRounds, warm.Delta.TaskRoundsSaved, prev.Iterations)
}

// TestAnalyzeFromFallbacks: seeds that cannot soundly replay fall back
// to a cold analysis (Delta == nil) but still return correct results.
func TestAnalyzeFromFallbacks(t *testing.T) {
	base := experiments.PaperSystem()
	optA := analysis.Options{Workers: 1}
	eng := analysis.NewEngine(optA)
	prev, err := eng.Analyze(base)
	if err != nil {
		t.Fatal(err)
	}

	// Different analysis options: the baseline trajectory is invalid.
	engTight := analysis.NewEngine(analysis.Options{Workers: 1, TightBestCase: true})
	res, err := engTight.AnalyzeFrom(prev, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta != nil {
		t.Fatal("a seed computed under different options must not replay")
	}

	// Reordered transactions: interference sums change order, cold path.
	perm := base.Clone()
	perm.Transactions[0], perm.Transactions[3] = perm.Transactions[3], perm.Transactions[0]
	res, err = eng.AnalyzeFrom(prev, perm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta != nil {
		t.Fatal("a reordered system must not replay")
	}
	cold, err := analysis.NewEngine(optA).Analyze(perm)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(cold, res) {
		t.Fatal("fallback result differs from cold analysis")
	}

	// A static seed has no replay state.
	stat, err := analysis.NewEngine(optA).AnalyzeStatic(base)
	if err != nil {
		t.Fatal(err)
	}
	if stat.HasReplayState() {
		t.Fatal("static results must not carry replay state")
	}
	if res, err = eng.AnalyzeFrom(stat, base); err != nil || res.Delta != nil {
		t.Fatalf("static seed: res.Delta=%v err=%v, want cold fallback", res.Delta, err)
	}

	// A nil seed is simply a cold analysis.
	if res, err = eng.AnalyzeFrom(nil, base); err != nil || res.Delta != nil {
		t.Fatalf("nil seed: res.Delta=%v err=%v, want cold analysis", res.Delta, err)
	}

	// DisableReplayState: identical bounds, no replay state, and such
	// a result cannot seed (but does not break) a later AnalyzeFrom.
	lean, err := analysis.NewEngine(analysis.Options{Workers: 1, DisableReplayState: true}).Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	if lean.HasReplayState() {
		t.Fatal("DisableReplayState result carries replay state")
	}
	if !resultsIdentical(lean, prev) {
		t.Fatal("DisableReplayState changed the computed bounds")
	}
	if res, err = eng.AnalyzeFrom(lean, base); err != nil || res.Delta != nil {
		t.Fatalf("replay-free seed: res.Delta=%v err=%v, want cold fallback", res.Delta, err)
	}
}

// TestAnalyzeFromRenameOnly: names are analysis-irrelevant, so a
// rename-only edit replays every task and converges without computing
// a single response.
func TestAnalyzeFromRenameOnly(t *testing.T) {
	opt := analysis.Options{Workers: 1}
	base := experiments.PaperSystem()
	eng := analysis.NewEngine(opt)
	prev, err := eng.Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	renamed := base.Clone()
	renamed.Transactions[0].Name = "Gamma1-renamed"
	renamed.Transactions[0].Tasks[2].Name = "tau-renamed"
	warm, err := eng.AnalyzeFrom(prev, renamed)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Delta == nil || warm.Delta.DirtyTasks != 0 {
		t.Fatalf("rename-only edit should replay everything, got %+v", warm.Delta)
	}
	cold, err := analysis.NewEngine(opt).Analyze(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(cold, warm) {
		t.Fatal("rename-only replay differs from cold analysis")
	}
	// The result must carry the new names (it reports on the new system).
	if warm.System.Transactions[0].Name != "Gamma1-renamed" {
		t.Fatal("replayed result reports the old system's names")
	}
}

// paperAdmission returns the paper example plus one admitted
// background transaction — the canonical admission-control event. The
// new transaction has the lowest priority on Π2, so it enters no other
// task's interference set: its own task is the only dirty one, and all
// seven original tasks match the seed's recorded rounds.
func paperAdmission() *model.System {
	sys := experiments.PaperSystem()
	sys.Transactions = append(sys.Transactions, model.Transaction{
		Name: "Gamma5", Period: 60, Deadline: 60,
		Tasks: []model.Task{{Name: "tau5,1", WCET: 0.5, BCET: 0.25, Priority: 0, Platform: 1}},
	})
	return sys
}

// BenchmarkDeltaPaperAdmissionCold / ...Incremental measure the
// acceptance bar on the admission event: re-analysing the paper
// example after one transaction is admitted, cold versus seeded with
// the pre-admission result. CI runs these with
// -bench='Delta|Incremental'.
func BenchmarkDeltaPaperAdmissionCold(b *testing.B) {
	opt := analysis.Options{Workers: 1}
	mut := paperAdmission()
	eng := analysis.NewEngine(opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Analyze(mut); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaPaperAdmissionIncremental(b *testing.B) {
	opt := analysis.Options{Workers: 1}
	eng := analysis.NewEngine(opt)
	prev, err := eng.Analyze(experiments.PaperSystem())
	if err != nil {
		b.Fatal(err)
	}
	mut := paperAdmission()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.AnalyzeFrom(prev, mut)
		if err != nil {
			b.Fatal(err)
		}
		if res.Delta == nil {
			b.Fatal("delta path did not engage")
		}
	}
}

// BenchmarkDeltaPaperDropCold / ...Incremental measure the complement
// of admission: dropping the background transaction again. The dropped
// task interfered with nobody (lowest priority), so the dirty set is
// empty and the incremental analysis is pure replay.
func BenchmarkDeltaPaperDropCold(b *testing.B) {
	opt := analysis.Options{Workers: 1}
	mut := experiments.PaperSystem() // the post-drop system
	eng := analysis.NewEngine(opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Analyze(mut); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaPaperDropIncremental(b *testing.B) {
	opt := analysis.Options{Workers: 1}
	eng := analysis.NewEngine(opt)
	prev, err := eng.Analyze(paperAdmission())
	if err != nil {
		b.Fatal(err)
	}
	mut := experiments.PaperSystem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.AnalyzeFrom(prev, mut)
		if err != nil {
			b.Fatal(err)
		}
		if res.Delta == nil {
			b.Fatal("delta path did not engage")
		}
	}
}

// BenchmarkDeltaPaperCold / BenchmarkDeltaPaperIncremental measure the
// retune variant: re-analysing the paper example after one existing
// transaction's WCET moves, cold versus seeded. The mutated
// transaction (Γ4) happens to be the costliest task of the system, so
// the speedup here is bounded by its own recomputation.
func BenchmarkDeltaPaperCold(b *testing.B) {
	opt := analysis.Options{Workers: 1}
	mut := experiments.PaperSystem()
	mut.Transactions[3].Tasks[0].WCET = 7.5
	eng := analysis.NewEngine(opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Analyze(mut); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaPaperIncremental(b *testing.B) {
	opt := analysis.Options{Workers: 1}
	base := experiments.PaperSystem()
	eng := analysis.NewEngine(opt)
	prev, err := eng.Analyze(base)
	if err != nil {
		b.Fatal(err)
	}
	mut := base.Clone()
	mut.Transactions[3].Tasks[0].WCET = 7.5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.AnalyzeFrom(prev, mut)
		if err != nil {
			b.Fatal(err)
		}
		if res.Delta == nil {
			b.Fatal("delta path did not engage")
		}
	}
}

// TestAnalyzeFromPriorityPairReorderFallsBack: the delta planner must
// refuse a matching whose COMBINED replay order (unchanged
// pairs plus positional priority-only pairs) reverses transaction
// order — a clean task's interference terms would sum in a different
// order than the baseline recorded. Here A's removal lets C
// (fingerprint-matched) jump ahead of the positionally-matched
// priority pair B/B', so the planner must fall back cold; the result
// stays bit-identical either way.
func TestAnalyzeFromPriorityPairReorderFallsBack(t *testing.T) {
	plats := []platform.Params{{Alpha: 0.8, Delta: 1, Beta: 0.5}, {Alpha: 0.5, Delta: 1, Beta: 0.5}}
	mkTx := func(name string, period float64, wcet float64, prio, plat int) model.Transaction {
		return model.Transaction{Name: name, Period: period, Deadline: period,
			Tasks: []model.Task{{Name: name + ",1", WCET: wcet, BCET: wcet / 2, Priority: prio, Platform: plat}}}
	}
	old := &model.System{Platforms: plats, Transactions: []model.Transaction{
		mkTx("A", 30, 1, 5, 1),
		mkTx("B", 40, 2, 4, 0),
		mkTx("C", 50, 3, 3, 0),
		mkTx("Z", 60, 4, 1, 0),
	}}
	eng := analysis.NewEngine(analysis.Options{})
	prev, err := eng.Analyze(old)
	if err != nil {
		t.Fatal(err)
	}

	// New system: A removed, C hoisted above B, B's priority moved
	// 4→2. B' matches B positionally (index 1 in both), C and Z match
	// old indices 2 and 3 by fingerprint — combined old order [2,1,3].
	bPrime := mkTx("B", 40, 2, 2, 0)
	next := &model.System{Platforms: plats, Transactions: []model.Transaction{
		mkTx("C", 50, 3, 3, 0),
		bPrime,
		mkTx("Z", 60, 4, 1, 0),
	}}
	d := model.Diff(old, next)
	if len(d.Unchanged) != 2 || len(d.Modified) != 1 || d.Modified[0] != [2]int{1, 1} || !d.InOrder() {
		t.Fatalf("scenario no longer matches its premise: %+v", d)
	}

	got, err := eng.AnalyzeFrom(prev, next)
	if err != nil {
		t.Fatal(err)
	}
	if got.Delta != nil {
		t.Fatalf("order-reversing matching took the replay path (Delta = %+v); interference sums are order-sensitive", got.Delta)
	}
	want, err := analysis.NewEngine(analysis.Options{}).Analyze(next)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tasks, want.Tasks) {
		t.Fatalf("fallback result differs from cold analysis")
	}
}
