package analysis

import "math"

// modPos returns x mod m in [0, m) using the mathematical (always
// non-negative) convention required by Eq. (7) and (10).
func modPos(x, m float64) float64 {
	r := math.Mod(x, m)
	if r < 0 {
		r += m
	}
	return r
}

// ceilE and floorE are ε-guarded integer roundings of a quotient,
// protecting the staircase terms of the analysis against floating-point
// noise (e.g. (t−ϕ)/T landing at 2.9999999999 instead of 3).
func ceilE(x, eps float64) float64  { return math.Ceil(x - eps) }
func floorE(x, eps float64) float64 { return math.Floor(x + eps) }

// phase returns ϕ^k_{i,j} per Eq. (10): the first activation of τi,j
// after the critical instant t=0 created by τi,k experiencing its
// maximal jitter. The interference sums read it from the task's
// phaseTable, not per fixed-point step:
//
//	ϕ^k_{i,j} = Ti − (φi,k + Ji,k − φi,j) mod Ti
//
// Offsets are reduced modulo the period first (the paper allows φ ≥ T
// and works with the reduced offset); the result lies in (0, Ti]. A
// value of exactly Ti means the job released at the critical instant
// itself is the first one, numbered p0 = 1 − ⌊(J+ϕ)/T⌋ by the caller.
//
// Residues within phaseEps of a period boundary are snapped to zero:
// the quantity φi,k + Ji,k − φi,j is a sum of derived best-case terms
// and frequently lands on an exact multiple of Ti, where raw
// floating-point noise would otherwise flip ϕ between ≈0 and Ti — a
// whole period of difference in the activation pattern.
func phase(phiK, jitterK, phiJ, period float64) float64 {
	r := modPos(phiK+jitterK-phiJ, period)
	if r < phaseEps || period-r < phaseEps {
		r = 0
	}
	return period - r
}

// phaseEps is the boundary-snapping tolerance of phase.
const phaseEps = 1e-9
