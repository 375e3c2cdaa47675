package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins bucket assignment at and around
// every boundary: Prometheus semantics are le (<=), so an observation
// equal to a bound lands in that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1, 1}
	cases := []struct {
		name   string
		v      float64
		bucket int // index into counts; len(bounds) = +Inf
	}{
		{"below_first", 0.0005, 0},
		{"at_first", 0.001, 0},
		{"just_above_first", 0.0010001, 1},
		{"mid", 0.05, 2},
		{"at_last", 1, 3},
		{"above_last", 1.5, 4},
		{"zero", 0, 0},
		{"negative", -3, 0},
		{"pos_inf", math.Inf(1), 4},
		{"nan", math.NaN(), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.Histogram("mloc_test_seconds", "t", bounds)
			h.Observe(tc.v)
			for i := range h.counts {
				want := int64(0)
				if i == tc.bucket {
					want = 1
				}
				if got := h.counts[i].Load(); got != want {
					t.Errorf("Observe(%v): bucket[%d] = %d, want %d", tc.v, i, got, want)
				}
			}
			if h.Count() != 1 {
				t.Errorf("Count() = %d, want 1", h.Count())
			}
		})
	}
}

// TestHistogramCumulativeExposition checks that rendered _bucket lines
// are cumulative and that _count equals the +Inf bucket.
func TestHistogramCumulativeExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mloc_test_seconds", "test", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`mloc_test_seconds_bucket{le="1"} 2`,
		`mloc_test_seconds_bucket{le="2"} 3`,
		`mloc_test_seconds_bucket{le="4"} 4`,
		`mloc_test_seconds_bucket{le="+Inf"} 5`,
		`mloc_test_seconds_count 5`,
		`mloc_test_seconds_sum 106`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryNameValidation pins the ^mloc_[a-z_]+$ rule and the
// duplicate / kind-conflict panics.
func TestRegistryNameValidation(t *testing.T) {
	bad := []string{"", "mloc_", "cache_hits", "mloc_Hits", "mloc_hits2", "mloc hits", "mloc_hits-total"}
	for _, name := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Counter(%q) did not panic", name)
				}
			}()
			NewRegistry().Counter(name, "h")
		}()
	}
	r := NewRegistry()
	r.Counter("mloc_hits_total", "h")
	r.Counter("mloc_hits_total", "h", L("var", "phi")) // distinct labels: fine
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate (name, labels) registration did not panic")
			}
		}()
		r.Counter("mloc_hits_total", "h")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind conflict did not panic")
			}
		}()
		r.GaugeFunc("mloc_hits_total", "h", func() float64 { return 0 }, L("other", "x"))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad label key did not panic")
			}
		}()
		r.Counter("mloc_other_total", "h", L("Var", "phi"))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative Counter.Add did not panic")
			}
		}()
		r.Counter("mloc_neg_total", "h").Add(-1)
	}()
}

// TestRegistryConcurrentMutation hammers registration, mutation, and
// scraping from many goroutines; run under -race it proves the
// registry's locking story (mutation is lock-free, registration and
// exposition synchronize on the registry lock).
func TestRegistryConcurrentMutation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mloc_shared_total", "shared counter")
	h := r.Histogram("mloc_shared_seconds", "shared histogram", DefSecondsBuckets())
	vars := []string{"phi", "theta", "rho", "pres"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lc := r.Counter("mloc_worker_total", "per-worker", L("var", vars[w%len(vars)]), L("w", string(rune('a'+w))))
			for i := 0; i < 500; i++ {
				c.Inc()
				lc.Add(2)
				h.Observe(float64(i) * 1e-4)
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Errorf("WritePrometheus: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != 8*500 {
		t.Errorf("counter = %d, want %d", got, 8*500)
	}
	if got := h.Count(); got != 8*500 {
		t.Errorf("histogram count = %d, want %d", got, 8*500)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if probs := Lint(sb.String(), true); len(probs) != 0 {
		t.Errorf("final exposition fails lint: %v", probs)
	}
}

// TestExpositionSortedAndEscaped pins family ordering, label-signature
// ordering, and label value escaping.
func TestExpositionSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	r.Counter("mloc_b_total", "second").Add(2)
	r.Counter("mloc_a_total", "first", L("path", `C:\x`), L("q", "a\"b\nc")).Inc()
	r.GaugeFunc("mloc_depth", "sampled", func() float64 { return 3 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	ia, ib := strings.Index(out, "mloc_a_total"), strings.Index(out, "mloc_b_total")
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("families not in name order:\n%s", out)
	}
	want := `mloc_a_total{path="C:\\x",q="a\"b\nc"} 1`
	if !strings.Contains(out, want+"\n") {
		t.Errorf("exposition missing escaped sample %q:\n%s", want, out)
	}
	if !strings.Contains(out, "mloc_depth 3\n") {
		t.Errorf("GaugeFunc sample missing:\n%s", out)
	}
	if probs := Lint(out, true); len(probs) != 0 {
		t.Errorf("lint problems: %v", probs)
	}
}

// TestExpBuckets pins the generator used for latency layouts.
func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	db := DefSecondsBuckets()
	if len(db) != 13 || db[0] != 1e-4 {
		t.Errorf("DefSecondsBuckets = %v", db)
	}
	for i := 1; i < len(db); i++ {
		if !(db[i] > db[i-1]) {
			t.Errorf("DefSecondsBuckets not ascending at %d: %v", i, db)
		}
	}
}
