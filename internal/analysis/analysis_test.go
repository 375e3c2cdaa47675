package analysis

import (
	"math"
	"math/rand"
	"testing"
)

func TestHistogramValidation(t *testing.T) {
	if _, err := NewEqualWidthHistogram(nil, 10); err == nil {
		t.Error("empty reference accepted")
	}
	if _, err := NewEqualWidthHistogram([]float64{1}, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewEqualWidthHistogram([]float64{1, math.NaN()}, 2); err == nil {
		t.Error("NaN accepted")
	}
}

func TestHistogramBinOf(t *testing.T) {
	h, err := NewEqualWidthHistogram([]float64{0, 10}, 10)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    float64
		want int
	}{{-1, 0}, {0, 0}, {0.5, 0}, {1, 1}, {5, 5}, {9.99, 9}, {10, 9}, {11, 9}}
	for _, c := range cases {
		if got := h.BinOf(c.v); got != c.want {
			t.Errorf("BinOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramCountsSum(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := make([]float64, 1000)
	for i := range data {
		data[i] = r.NormFloat64()
	}
	h, _ := NewEqualWidthHistogram(data, 20)
	counts := make([]int64, 20)
	for _, v := range data {
		b := h.BinOf(v)
		if b < 0 || b >= len(counts) {
			t.Fatalf("BinOf(%v) = %d, outside [0,20)", v, b)
		}
		counts[b]++
	}
	if counts[0] == 0 || counts[19] == 0 {
		t.Fatalf("reference extremes not in the edge bins: %v", counts)
	}
}

func TestHistogramConstantReference(t *testing.T) {
	h, err := NewEqualWidthHistogram([]float64{5, 5, 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b := h.BinOf(5); b < 0 || b >= 4 {
		t.Fatalf("BinOf on degenerate histogram = %d", b)
	}
}

func TestDisagreementRate(t *testing.T) {
	h, _ := NewEqualWidthHistogram([]float64{0, 100}, 10)
	orig := []float64{5, 15, 25, 35}
	same := []float64{6, 16, 26, 36}
	rate, err := h.DisagreementRate(orig, same)
	if err != nil || rate != 0 {
		t.Fatalf("rate = %v, %v", rate, err)
	}
	moved := []float64{5, 15, 25, 45} // last point crosses a bin edge
	rate, _ = h.DisagreementRate(orig, moved)
	if rate != 0.25 {
		t.Fatalf("rate = %v, want 0.25", rate)
	}
	if _, err := h.DisagreementRate(orig, orig[:2]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	rate, err = h.DisagreementRate(nil, nil)
	if err != nil || rate != 0 {
		t.Fatal("empty disagreement should be 0")
	}
}

// threeBlobs makes well-separated 2-D clusters.
func threeBlobs(n int, seed int64) ([][]float64, []int) {
	r := rand.New(rand.NewSource(seed))
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	points := make([][]float64, n)
	truth := make([]int, n)
	for i := range points {
		c := r.Intn(3)
		truth[i] = c
		points[i] = []float64{
			centers[c][0] + r.NormFloat64()*0.5,
			centers[c][1] + r.NormFloat64()*0.5,
		}
	}
	return points, truth
}

func TestKMeansValidation(t *testing.T) {
	if _, err := KMeans(nil, 2, 10, 1, nil); err == nil {
		t.Error("empty points accepted")
	}
	pts := [][]float64{{1}, {2}}
	if _, err := KMeans(pts, 3, 10, 1, nil); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := KMeans(pts, 0, 10, 1, nil); err == nil {
		t.Error("k = 0 accepted")
	}
	bad := [][]float64{{1}, {2, 3}}
	if _, err := KMeans(bad, 1, 10, 1, nil); err == nil {
		t.Error("ragged points accepted")
	}
	if _, err := KMeans(pts, 2, 10, 1, [][]float64{{1}}); err == nil {
		t.Error("wrong init centroid count accepted")
	}
	if _, err := KMeans(pts, 1, 10, 1, [][]float64{{1, 2}}); err == nil {
		t.Error("wrong init centroid dim accepted")
	}
}

func TestKMeansRecoversBlobs(t *testing.T) {
	points, truth := threeBlobs(600, 2)
	res, err := KMeans(points, 3, 100, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Majority-map clusters to truth labels and count agreement.
	var mapping [3]map[int]int
	for i := range mapping {
		mapping[i] = map[int]int{}
	}
	for i, a := range res.Assignments {
		mapping[a][truth[i]]++
	}
	agree := 0
	for c := 0; c < 3; c++ {
		best := 0
		for _, n := range mapping[c] {
			if n > best {
				best = n
			}
		}
		agree += best
	}
	if float64(agree)/float64(len(points)) < 0.98 {
		t.Fatalf("kmeans recovered only %d/%d points", agree, len(points))
	}
}

func TestKMeansDeterministicWithSameInit(t *testing.T) {
	points, _ := threeBlobs(300, 3)
	a, err := KMeans(points, 3, 50, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(points, 3, 50, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := MisclassificationRate(a, b)
	if err != nil || rate != 0 {
		t.Fatalf("same seed produced different clusterings: %v %v", rate, err)
	}
}

func TestKMeansSharedInitComparability(t *testing.T) {
	// The Table VI protocol: cluster original and a slightly perturbed
	// copy from identical initial centroids; the disagreement must be
	// tiny because the perturbation is far below cluster separation.
	points, _ := threeBlobs(500, 4)
	r := rand.New(rand.NewSource(5))
	perturbed := make([][]float64, len(points))
	for i, p := range points {
		perturbed[i] = []float64{p[0] + r.NormFloat64()*1e-4, p[1] + r.NormFloat64()*1e-4}
	}
	init := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	a, err := KMeans(points, 3, 100, 0, init)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(perturbed, 3, 100, 0, init)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := MisclassificationRate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rate > 0.001 {
		t.Fatalf("tiny perturbation misclassified %.4f of points", rate)
	}
}

func TestKMeansEmptyClusterSurvives(t *testing.T) {
	// An initial centroid far from all points yields an empty cluster;
	// the algorithm must not divide by zero.
	points := [][]float64{{0}, {0.1}, {0.2}, {10}, {10.1}}
	init := [][]float64{{0}, {10}, {1e6}}
	res, err := KMeans(points, 3, 20, 0, init)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assignments {
		if a < 0 || a >= 3 {
			t.Fatalf("assignment %d out of range", a)
		}
	}
}

func TestMisclassificationRateValidation(t *testing.T) {
	a := &KMeansResult{Assignments: []int{0, 1}}
	b := &KMeansResult{Assignments: []int{0}}
	if _, err := MisclassificationRate(a, b); err == nil {
		t.Fatal("length mismatch accepted")
	}
	empty := &KMeansResult{}
	if rate, err := MisclassificationRate(empty, empty); err != nil || rate != 0 {
		t.Fatal("empty comparison should be 0")
	}
}

func TestColumns(t *testing.T) {
	pts, err := Columns([]float64{1, 2}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0][0] != 1 || pts[0][1] != 3 || pts[1][1] != 4 {
		t.Fatalf("Columns = %v", pts)
	}
	if _, err := Columns(); err == nil {
		t.Fatal("no columns accepted")
	}
	if _, err := Columns([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
}
