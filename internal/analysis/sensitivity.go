package analysis

import (
	"fmt"
	"math"

	"hsched/internal/model"
)

// CriticalScaling returns the largest factor k (within tol) such that
// the system with every execution time (WCET and BCET) multiplied by k
// is still schedulable under the holistic analysis — the classic
// sensitivity metric: k > 1 measures spare capacity, k < 1 the
// overload degree. The search range is (0, maxFactor]; maxFactor ≤ 0
// selects 16. Returns 0 when the system is unschedulable at every
// probed factor.
func CriticalScaling(sys *model.System, opt Options, tol, maxFactor float64) (float64, error) {
	if err := sys.Validate(); err != nil {
		return 0, err
	}
	if tol <= 0 {
		tol = 1e-3
	}
	if maxFactor <= 0 {
		maxFactor = 16
	}

	// The probes differ only in execution times, so one engine and one
	// scaled working copy serve the whole search: the engine reuses its
	// buffers and the copy is rescaled in place from the pristine input.
	fastOpt := opt
	fastOpt.StopAtDeadlineMiss = true
	// Every probe rescales every transaction, so no probe could ever
	// seed another incrementally — skip the replay-state recording.
	fastOpt.DisableReplayState = true
	eng := NewEngine(fastOpt)
	scaled := sys.Clone()
	feasible := func(k float64) (bool, error) {
		for i := range scaled.Transactions {
			for j := range scaled.Transactions[i].Tasks {
				t := &scaled.Transactions[i].Tasks[j]
				orig := &sys.Transactions[i].Tasks[j]
				t.WCET = orig.WCET * k
				t.BCET = orig.BCET * k
			}
		}
		res, err := eng.Analyze(scaled)
		if err != nil {
			return false, err
		}
		return res.Schedulable, nil
	}

	ok, err := feasible(maxFactor)
	if err != nil {
		return 0, err
	}
	if ok {
		return maxFactor, nil
	}
	lo, hi := 0.0, maxFactor
	okAtLo := false
	// Establish a feasible lower point by geometric probing.
	for probe := 1.0; probe > tol/16; probe /= 2 {
		ok, err := feasible(probe)
		if err != nil {
			return 0, err
		}
		if ok {
			lo, okAtLo = probe, true
			break
		}
		hi = probe
	}
	if !okAtLo {
		return 0, nil
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		ok, err := feasible(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if math.IsNaN(lo) {
		return 0, fmt.Errorf("analysis: scaling search diverged")
	}
	return lo, nil
}
