package analysis

import "testing"

// NewCheckedEngine returns an engine that holds every holistic round
// to the naive sweep (see newCheckedEngine); opt's Recorder is
// replaced.
func NewCheckedEngine(tb testing.TB, opt Options) *Engine { return newCheckedEngine(tb, opt) }

// CheckSweep fails tb unless every task result of e's current round —
// after a static pass, its only round — equals the naive sweep's first
// maximum.
func CheckSweep(tb testing.TB, e *Engine) { checkSweep(tb, e, "static pass") }

// BenchShape and BenchShapes expose the benchmark's analysis shapes to
// the external test package.
type BenchShape = benchShape

var BenchShapes = benchShapes

// RaceEnabled exposes raceEnabled to the external test package.
const RaceEnabled = raceEnabled
