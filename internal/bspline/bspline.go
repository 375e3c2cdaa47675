// Package bspline implements cubic B-spline least-squares fitting and
// evaluation on a clamped uniform knot vector. It is the numerical core
// of the ISABELA-style lossy compressor (internal/compress): ISABELA
// sorts each window of values into a monotone curve and approximates
// that curve with a small number of cubic B-spline coefficients.
package bspline

import (
	"fmt"
	"math"
)

// Degree of the splines in this package (cubic).
const Degree = 3

// Spline is a fitted cubic B-spline over the parameter domain [0,1].
type Spline struct {
	coefs []float64
	knots []float64
}

// Coefs returns the coefficient slice; callers must not mutate it.
func (s *Spline) Coefs() []float64 { return s.coefs }

// FromCoefs rebuilds a spline from stored coefficients (the decoder
// side of ISABELA).
func FromCoefs(coefs []float64) (*Spline, error) {
	if len(coefs) < Degree+1 {
		return nil, fmt.Errorf("bspline: need >= %d coefficients, got %d", Degree+1, len(coefs))
	}
	return &Spline{coefs: append([]float64(nil), coefs...), knots: clampedKnots(len(coefs))}, nil
}

// clampedKnots builds the clamped uniform knot vector for ncoef
// coefficients: degree+1 repeated knots at both ends, uniform interior.
func clampedKnots(ncoef int) []float64 {
	m := ncoef + Degree + 1
	knots := make([]float64, m)
	interior := ncoef - Degree // number of interior intervals
	for i := 0; i < m; i++ {
		switch {
		case i <= Degree:
			knots[i] = 0
		case i >= ncoef:
			knots[i] = 1
		default:
			knots[i] = float64(i-Degree) / float64(interior)
		}
	}
	return knots
}

// findSpan locates the knot span index containing t.
func findSpan(knots []float64, ncoef int, t float64) int {
	if t >= 1 {
		return ncoef - 1
	}
	if t <= 0 {
		return Degree
	}
	lo, hi := Degree, ncoef
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if t < knots[mid] {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// basisFuncs computes the Degree+1 nonzero basis function values at t
// for the given span (Cox–de Boor, NURBS-book algorithm A2.2).
func basisFuncs(knots []float64, span int, t float64, out *[Degree + 1]float64) {
	var left, right [Degree + 1]float64
	out[0] = 1
	for j := 1; j <= Degree; j++ {
		left[j] = t - knots[span+1-j]
		right[j] = knots[span+j] - t
		saved := 0.0
		for r := 0; r < j; r++ {
			denom := right[r+1] + left[j-r]
			var temp float64
			// Exact zero marks a repeated knot; Cox–de Boor defines the
			// 0/0 term as 0, so the comparison is intentionally exact.
			if denom != 0 { //mlocvet:ignore floatcmp -- exact zero guard before division, not a tolerance comparison
				temp = out[r] / denom
			}
			out[r] = saved + right[r+1]*temp
			saved = left[j-r] * temp
		}
		out[j] = saved
	}
}

// Eval evaluates the spline at parameter t in [0,1] (clamped).
func (s *Spline) Eval(t float64) float64 {
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	span := findSpan(s.knots, len(s.coefs), t)
	var basis [Degree + 1]float64
	basisFuncs(s.knots, span, t, &basis)
	var v float64
	for j := 0; j <= Degree; j++ {
		v += basis[j] * s.coefs[span-Degree+j]
	}
	return v
}

// EvalN evaluates the spline at n uniformly spaced parameters
// (t_i = i/(n-1); for n==1, t=0), appending into dst. This matches the
// sample positions used by Fit.
func (s *Spline) EvalN(n int, dst []float64) []float64 {
	if n <= 0 {
		return dst
	}
	if n == 1 {
		return append(dst, s.Eval(0))
	}
	for i := 0; i < n; i++ {
		dst = append(dst, s.Eval(float64(i)/float64(n-1)))
	}
	return dst
}

// Fit least-squares fits a cubic B-spline with ncoef coefficients to
// the samples y, assumed to lie at uniform parameters t_i = i/(n-1).
// It requires len(y) >= ncoef >= Degree+1.
func Fit(y []float64, ncoef int) (*Spline, error) {
	n := len(y)
	if ncoef < Degree+1 {
		return nil, fmt.Errorf("bspline: ncoef %d < %d", ncoef, Degree+1)
	}
	if n < ncoef {
		return nil, fmt.Errorf("bspline: %d samples cannot determine %d coefficients", n, ncoef)
	}
	knots := clampedKnots(ncoef)

	// Normal equations: (AᵀA)c = Aᵀy. A is n×ncoef with ≤4 nonzeros
	// per row, so AᵀA is banded with bandwidth Degree; we assemble it
	// densely (ncoef is small, tens) and solve with partial-pivot
	// Gaussian elimination.
	ata := make([][]float64, ncoef)
	for i := range ata {
		ata[i] = make([]float64, ncoef)
	}
	aty := make([]float64, ncoef)
	var basis [Degree + 1]float64
	for i := 0; i < n; i++ {
		var t float64
		if n > 1 {
			t = float64(i) / float64(n-1)
		}
		span := findSpan(knots, ncoef, t)
		basisFuncs(knots, span, t, &basis)
		base := span - Degree
		for a := 0; a <= Degree; a++ {
			ia := base + a
			aty[ia] += basis[a] * y[i]
			for b := 0; b <= Degree; b++ {
				ata[ia][base+b] += basis[a] * basis[b]
			}
		}
	}
	coefs, err := solveLinear(ata, aty)
	if err != nil {
		return nil, err
	}
	return &Spline{coefs: coefs, knots: knots}, nil
}

// solveLinear solves the dense system M x = b in place with partial
// pivoting. M and b are consumed.
func solveLinear(m [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		best := math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(m[r][col]); a > best {
				best, pivot = a, r
			}
		}
		// An exactly-zero pivot column is structurally singular (no
		// sample touches the basis function), not a rounding artifact.
		if best == 0 { //mlocvet:ignore floatcmp -- exact zero means no improvement was recorded; a tolerance would misread tiny gains
			return nil, fmt.Errorf("bspline: singular normal matrix at column %d", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate.
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 { //mlocvet:ignore floatcmp -- exact zero guard before division, not a tolerance comparison
				continue // exact: skipping a zero factor is a pure fast path
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		v := b[r]
		for c := r + 1; c < n; c++ {
			v -= m[r][c] * x[c]
		}
		x[r] = v / m[r][r]
	}
	return x, nil
}
