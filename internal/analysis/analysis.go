// Package analysis implements the two analytics the paper uses to
// quantify PLoD accuracy (Table VI): equal-width histogram construction
// and K-means clustering. Both compare results on original data against
// results on reduced-precision (PLoD) reconstructions and report the
// disagreement rate.
package analysis

import (
	"fmt"
	"math"
	"math/rand"
)

// EqualWidthHistogram holds bin edges built on a reference dataset.
type EqualWidthHistogram struct {
	lo, hi float64
	nbins  int
}

// NewEqualWidthHistogram builds an equal-width histogram layout from
// the reference values (the paper builds edges on the ORIGINAL data and
// then applies them to PLoD reconstructions).
func NewEqualWidthHistogram(reference []float64, nbins int) (*EqualWidthHistogram, error) {
	if nbins < 1 {
		return nil, fmt.Errorf("analysis: nbins %d < 1", nbins)
	}
	if len(reference) == 0 {
		return nil, fmt.Errorf("analysis: empty reference data")
	}
	lo, hi := reference[0], reference[0]
	for _, v := range reference {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("analysis: NaN in reference data")
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= lo { // constant data: widen the degenerate range
		hi = lo + 1
	}
	return &EqualWidthHistogram{lo: lo, hi: hi, nbins: nbins}, nil
}

// BinOf maps a value to its bin, clamping out-of-range values to the
// edge bins.
func (h *EqualWidthHistogram) BinOf(v float64) int {
	if v <= h.lo {
		return 0
	}
	if v >= h.hi {
		return h.nbins - 1
	}
	b := int(float64(h.nbins) * (v - h.lo) / (h.hi - h.lo))
	if b >= h.nbins {
		b = h.nbins - 1
	}
	return b
}

// DisagreementRate returns the fraction of points whose bin assignment
// under the degraded values differs from the original values — the
// paper's "histogram error" metric.
func (h *EqualWidthHistogram) DisagreementRate(original, degraded []float64) (float64, error) {
	if len(original) != len(degraded) {
		return 0, fmt.Errorf("analysis: length mismatch %d vs %d", len(original), len(degraded))
	}
	if len(original) == 0 {
		return 0, nil
	}
	var diff int64
	for i := range original {
		if h.BinOf(original[i]) != h.BinOf(degraded[i]) {
			diff++
		}
	}
	return float64(diff) / float64(len(original)), nil
}

// KMeansResult holds the clustering output.
type KMeansResult struct {
	Centroids   [][]float64
	Assignments []int
	Iterations  int
}

// KMeans clusters points (each a d-dimensional slice) into k clusters
// using Lloyd's algorithm with deterministic seeded initialization.
// initCentroids, when non-nil, overrides the random initialization —
// this is how the accuracy experiment clusters original and degraded
// data from identical starting conditions so cluster identities
// correspond across runs.
func KMeans(points [][]float64, k, maxIters int, seed int64, initCentroids [][]float64) (*KMeansResult, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("analysis: no points")
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("analysis: k=%d out of [1,%d]", k, n)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("analysis: point %d has dim %d, want %d", i, len(p), dim)
		}
	}

	centroids := make([][]float64, k)
	if initCentroids != nil {
		if len(initCentroids) != k {
			return nil, fmt.Errorf("analysis: %d init centroids for k=%d", len(initCentroids), k)
		}
		for i, c := range initCentroids {
			if len(c) != dim {
				return nil, fmt.Errorf("analysis: init centroid %d has dim %d, want %d", i, len(c), dim)
			}
			centroids[i] = append([]float64(nil), c...)
		}
	} else {
		r := rand.New(rand.NewSource(seed))
		perm := r.Perm(n)
		for i := 0; i < k; i++ {
			centroids[i] = append([]float64(nil), points[perm[i]]...)
		}
	}

	assign := make([]int, n)
	sums := make([][]float64, k)
	counts := make([]int, k)
	for i := range sums {
		sums[i] = make([]float64, dim)
	}
	iters := 0
	for ; iters < maxIters; iters++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				d := sqDist(p, centroids[c])
				if d < bestD {
					bestD, best = d, c
				}
			}
			if assign[i] != best || iters == 0 {
				changed = changed || assign[i] != best
				assign[i] = best
			}
		}
		if iters > 0 && !changed {
			break
		}
		// Recompute centroids.
		for c := 0; c < k; c++ {
			counts[c] = 0
			for d := 0; d < dim; d++ {
				sums[c][d] = 0
			}
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := 0; d < dim; d++ {
				sums[c][d] += p[d]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue // keep the old centroid for empty clusters
			}
			for d := 0; d < dim; d++ {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
	}
	return &KMeansResult{Centroids: centroids, Assignments: assign, Iterations: iters}, nil
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// MisclassificationRate returns the fraction of points assigned to
// different clusters in the two results — the paper's "K-means error".
// Both clusterings must have started from the same initial centroids so
// cluster ids correspond.
func MisclassificationRate(a, b *KMeansResult) (float64, error) {
	if len(a.Assignments) != len(b.Assignments) {
		return 0, fmt.Errorf("analysis: assignment length mismatch %d vs %d",
			len(a.Assignments), len(b.Assignments))
	}
	if len(a.Assignments) == 0 {
		return 0, nil
	}
	var diff int64
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			diff++
		}
	}
	return float64(diff) / float64(len(a.Assignments)), nil
}

// Columns zips per-variable value slices into row points for KMeans
// (e.g. Columns(vv, vw) builds the 2-D points Table VI clusters).
func Columns(vars ...[]float64) ([][]float64, error) {
	if len(vars) == 0 {
		return nil, fmt.Errorf("analysis: no columns")
	}
	n := len(vars[0])
	for i, v := range vars {
		if len(v) != n {
			return nil, fmt.Errorf("analysis: column %d has %d values, want %d", i, len(v), n)
		}
	}
	points := make([][]float64, n)
	for i := 0; i < n; i++ {
		p := make([]float64, len(vars))
		for j, v := range vars {
			p[j] = v[i]
		}
		points[i] = p
	}
	return points, nil
}

// Mean returns the arithmetic mean — the paper's "mean value analysis"
// example for PLoD precision claims.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}
