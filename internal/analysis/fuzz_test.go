package analysis_test

import (
	"math/rand"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/gen"
	"hsched/internal/model"
)

// fuzzShapes are the base systems FuzzAnalyzeFromMatchesCold draws
// from: the TestAnalyzeFromBitIdentical shape, the exact-cold and
// assign-search benchmark shapes, and the verdict sample's
// random-priority shape, where cut and diverging iterations occur.
var fuzzShapes = []func(seed int64) gen.Config{
	func(seed int64) gen.Config {
		return gen.Config{Seed: seed, Platforms: 2, Transactions: 3, ChainLen: 3,
			PeriodMin: 20, PeriodMax: 300, Utilization: 0.45, AlphaMin: 0.4, AlphaMax: 0.9}
	},
	func(seed int64) gen.Config {
		return gen.Config{Seed: seed, Platforms: 1, Transactions: 4, ChainLen: 4,
			PeriodMin: 20, PeriodMax: 400, Utilization: 0.35, AlphaMin: 0.5, AlphaMax: 0.9,
			RandomPriorities: true}
	},
	func(seed int64) gen.Config {
		return gen.Config{Seed: seed, Platforms: 2, Transactions: 4, ChainLen: 3,
			PeriodMin: 20, PeriodMax: 400, Utilization: 0.4, AlphaMin: 0.4, AlphaMax: 0.9}
	},
	func(seed int64) gen.Config {
		return gen.Config{Seed: seed, Platforms: 2, Transactions: 4, ChainLen: 3,
			PeriodMin: 10, PeriodMax: 200, Utilization: 0.6, AlphaMin: 0.4, AlphaMax: 0.9,
			RandomPriorities: true}
	},
}

// fuzzOptions decodes the option byte: bit 0 exact, bit 1 tight best
// case, bit 2 StopAtDeadlineMiss, bit 3 a goal, whose number the high
// nibble picks; iters picks MaxIterations in 1..40 (0 selects 40).
// MaxInner is capped so a diverging busy period fails fast.
func fuzzOptions(flags, iters byte) (opt analysis.Options, goal int) {
	opt = analysis.Options{
		Workers:            1,
		Exact:              flags&1 != 0,
		TightBestCase:      flags&2 != 0,
		StopAtDeadlineMiss: flags&4 != 0,
		MaxIterations:      int(iters) % 41,
		MaxInner:           50_000,
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = 40
	}
	if flags&8 != 0 {
		goal = 1 + int(flags>>4)
	}
	return opt, goal
}

// FuzzAnalyzeFromMatchesCold drives AnalyzeFrom through edit chains the
// fuzzer picks. The input's first four bytes choose a base shape, its
// seed, the option byte and MaxIterations (see fuzzOptions); every
// further byte (at most 12) is one edit: an op of mutateOp, or a
// priority probe pair (priorityProbe). Each edited system is analysed
// on a checked engine seeded with the previous step's result, which
// holds every round, copied or computed, to the naive sweep, and must
// equal a cold analysis bit for bit, stop and verdicts included.
func FuzzAnalyzeFromMatchesCold(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 8})
	f.Add([]byte{1, 2, 1, 0, 9, 9, 0, 2, 9})
	f.Add([]byte{2, 3, 2, 0, 9, 3, 1, 9, 4})
	f.Add([]byte{3, 4, 4, 0, 0, 9, 5, 9, 8})
	f.Add([]byte{3, 5, 0x18, 0, 9, 9, 9, 2})
	f.Add([]byte{1, 6, 5, 3, 9, 0, 9, 7, 9})
	f.Add([]byte{2, 7, 2, 2, 4, 9, 5, 9, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		shape, seed := int(data[0])%len(fuzzShapes), int64(data[1])
		opt, goal := fuzzOptions(data[2], data[3])
		edits := data[4:]
		if len(edits) > 12 {
			edits = edits[:12]
		}
		sys, err := gen.System(fuzzShapes[shape](seed))
		if err != nil {
			t.Skip(err)
		}
		rng := rand.New(rand.NewSource(seed<<8 | int64(shape)))
		var prev *analysis.Result
		step := func(s *model.System) {
			o := opt
			if goal > 0 {
				o.Goal = 1 + (goal-1)%len(s.Transactions)
			}
			cold, cerr := analysis.NewEngine(o).Analyze(s)
			warm, werr := analysis.NewCheckedEngine(t, o).AnalyzeFrom(prev, s)
			if (cerr == nil) != (werr == nil) {
				t.Fatalf("cold error %v, warm error %v", cerr, werr)
			}
			if cerr != nil {
				prev = nil
				return
			}
			if !resultsIdentical(cold, warm) || cold.StoppedAtGoal != warm.StoppedAtGoal {
				t.Fatalf("AnalyzeFrom diverged from cold analysis (delta=%+v)", warm.Delta)
			}
			for i := range cold.Tasks {
				if cold.MeetsDeadline(i) != warm.MeetsDeadline(i) || cold.Misses(i) != warm.Misses(i) {
					t.Fatalf("Γ%d: verdicts differ", i+1)
				}
			}
			prev = warm
		}
		step(sys)
		for _, e := range edits {
			if op := int(e) % (mutateOps + 1); op < mutateOps {
				sys = mutateOp(rng, sys, op)
				step(sys)
				continue
			}
			top, placed := priorityProbe(rng, sys)
			step(top)
			step(placed)
			sys = placed
		}
	})
}
