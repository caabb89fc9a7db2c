package dsp

import (
	"errors"
	"math/cmplx"
)

// ErrSingular is returned when a linear system has no usable solution.
var ErrSingular = errors.New("dsp: singular system")

var (
	errDimensionMismatch = errors.New("dsp: SolveLeastSquares dimension mismatch")
	errRaggedMatrix      = errors.New("dsp: SolveLeastSquares ragged matrix")
)

// SolveLeastSquares solves min ‖A·x − b‖² for a dense real matrix A given
// as rows, returning x. It forms the normal equations AᵀA·x = Aᵀb with a
// small ridge term for conditioning and solves them by Gaussian
// elimination with partial pivoting. The systems in this codebase are tiny
// (equalizer taps, channel taps: ≤ a few dozen unknowns) so this is both
// adequate and dependency-free.
//
// This and the other free solvers below are one-shot conveniences: each
// call allocates its working matrices. Hot paths (per-trial channel
// fits) hold an LSQ instead, whose methods run the identical arithmetic
// on reusable scratch.
func SolveLeastSquares(a [][]float64, b []float64) ([]float64, error) {
	var s LSQ
	return s.SolveLeastSquares(a, b)
}

// SolveLinear solves the square system M·x = v by Gaussian elimination
// with partial pivoting. M is modified in place.
func SolveLinear(m [][]float64, v []float64) ([]float64, error) {
	var s LSQ
	return s.SolveLinear(m, v)
}

// SolveComplexLeastSquares solves min ‖A·x − b‖² for complex A, b by
// stacking real and imaginary parts into a real system. The first row
// sets the width: shorter rows are zero-padded, and a longer row is a
// ragged matrix (an error, as for SolveLeastSquares).
func SolveComplexLeastSquares(a [][]complex128, b []complex128) ([]complex128, error) {
	var s LSQ
	return s.SolveComplexLeastSquares(a, b)
}

// EstimateFIR fits a two-sided FIR filter of one-sided width w that best
// maps the known input x onto the observed output y over the sample range
// [from, to): y[n] ≈ Σ_l g[l]·x[n−l]. It is the decision-directed channel
// estimator ZigZag uses to model a sender's ISI before re-encoding a chunk
// (§4.2.4d), fitted by complex least squares over already-decoded symbols.
func EstimateFIR(x, y []complex128, from, to, w int) (FIR, error) {
	var s LSQ
	return s.EstimateFIR(x, y, from, to, w)
}

// GainPhase decomposes a complex channel coefficient into magnitude and
// phase, mirroring the paper's H = h·e^{jγ} notation.
func GainPhase(h complex128) (gain, phase float64) {
	return cmplx.Abs(h), cmplx.Phase(h)
}
