package sfc

// Locality metrics quantify how well a curve clusters spatial regions
// into contiguous runs of the linearized order. The MLOC paper's case
// for Hilbert ordering (§III-B2, citing Moon et al.) is that a query
// over a spatial sub-volume touches fewer, longer runs of the
// linearization, reducing seek count. TestHilbertBeatsZOrderOnRuns
// measures that claim with these helpers.

// RegionRuns returns the number of maximal contiguous runs of curve
// indices covered by the axis-aligned box [lo, hi] (inclusive bounds per
// dimension). Fewer runs means fewer seeks for the same data volume.
func RegionRuns(c Curve, lo, hi []uint32) int {
	idx := regionIndices(c, lo, hi)
	if len(idx) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(idx); i++ {
		if idx[i] != idx[i-1]+1 {
			runs++
		}
	}
	return runs
}

// regionIndices enumerates and sorts the curve indices of every lattice
// point in the box. Intended for modest test/bench sizes.
func regionIndices(c Curve, lo, hi []uint32) []uint64 {
	dims := c.Dims()
	if len(lo) != dims || len(hi) != dims {
		panic("sfc: bounds dimensionality mismatch")
	}
	n := uint64(1)
	for d := 0; d < dims; d++ {
		if hi[d] < lo[d] {
			return nil
		}
		n *= uint64(hi[d]-lo[d]) + 1
	}
	out := make([]uint64, 0, n)
	coords := make([]uint32, dims)
	copy(coords, lo)
	for {
		out = append(out, c.Index(coords))
		// Odometer increment.
		d := dims - 1
		for d >= 0 {
			coords[d]++
			if coords[d] <= hi[d] {
				break
			}
			coords[d] = lo[d]
			d--
		}
		if d < 0 {
			break
		}
	}
	sortUint64(out)
	return out
}

// sortUint64 is an in-place pattern-defeating-free quicksort for the
// small slices used in locality analysis; stdlib sort would force an
// interface boxing per element via sort.Slice, which the benches avoid.
func sortUint64(a []uint64) {
	if len(a) < 2 {
		return
	}
	if len(a) < 16 {
		for i := 1; i < len(a); i++ {
			v := a[i]
			j := i - 1
			for j >= 0 && a[j] > v {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = v
		}
		return
	}
	pivot := a[len(a)/2]
	left, right := 0, len(a)-1
	for left <= right {
		for a[left] < pivot {
			left++
		}
		for a[right] > pivot {
			right--
		}
		if left <= right {
			a[left], a[right] = a[right], a[left]
			left++
			right--
		}
	}
	sortUint64(a[:right+1])
	sortUint64(a[left:])
}
