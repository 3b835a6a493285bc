package analysis

// SweepToggles exposes Options' exact-sweep toggles to the external
// test package: each true field turns one acceleration off.
type SweepToggles = sweepToggles

// WithSweep returns opt with its exact-sweep toggles set to t.
func WithSweep(opt Options, t SweepToggles) Options {
	opt.sweep = t
	return opt
}

// BenchShape and BenchShapes expose the benchmark's analysis shapes to
// the external test package.
type BenchShape = benchShape

var BenchShapes = benchShapes
