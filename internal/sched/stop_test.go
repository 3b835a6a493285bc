package sched

import (
	"context"
	"fmt"
	"testing"

	"hsched/internal/analysis"
	"hsched/internal/gen"
)

// stopShapes are the benchmark's analysis shapes (admit-edit,
// exact-cold, assign-search), drawn per seed.
var stopShapes = []func(seed int64) gen.Config{
	func(seed int64) gen.Config {
		return gen.Config{Seed: seed, Platforms: 3, Transactions: 8 + int(seed%5), ChainLen: 4,
			PeriodMin: 20, PeriodMax: 400, Utilization: 0.4, AlphaMin: 0.4, AlphaMax: 0.9}
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
}

// TestAssignStopInvariant: StopAtDeadlineMiss only ends an analysis at
// a final miss, and the searches clear it on every probe they read
// more than a verdict from, so every policy installs the same
// priorities and reports the same verdict with it as without it — over
// the benchmark shapes, seeds 0–29, approximate and exact.
func TestAssignStopInvariant(t *testing.T) {
	ctx := context.Background()
	searches, differ := 0, 0
	for _, exact := range []bool{false, true} {
		for _, shape := range stopShapes {
			for seed := int64(0); seed < 30; seed++ {
				sys, err := gen.System(shape(seed))
				if err != nil {
					t.Fatal(err)
				}
				for _, policy := range Policies() {
					var prios [2]string
					var oks [2]bool
					for k, stop := range []bool{false, true} {
						opt := analysis.Options{Exact: exact, MaxIterations: 32, Workers: 1, StopAtDeadlineMiss: stop}
						work := sys.Clone()
						_, ok, err := Assign(ctx, work, policy, AssignOptions{Analysis: opt})
						if err != nil {
							t.Fatal(err)
						}
						prios[k], oks[k] = fmt.Sprint(snapshotPriorities(work)), ok
					}
					searches++
					if prios[0] != prios[1] || oks[0] != oks[1] {
						differ++
						t.Logf("exact %v, seed %d, %s: ok %v, priorities %s without the stop; ok %v, %s with it",
							exact, seed, policy, oks[0], prios[0], oks[1], prios[1])
					}
				}
			}
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d assignments differ under StopAtDeadlineMiss", differ, searches)
	}
}
