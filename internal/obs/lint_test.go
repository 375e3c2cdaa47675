package obs

import (
	"strings"
	"testing"
)

// validExposition is a hand-written payload exercising every construct
// the linter must accept.
const validExposition = `# HELP mloc_cache_hits_total Cache hits.
# TYPE mloc_cache_hits_total counter
mloc_cache_hits_total 42
# HELP mloc_queue_depth Admission queue depth.
# TYPE mloc_queue_depth gauge
mloc_queue_depth{endpoint="/query"} 3
mloc_queue_depth{endpoint="/stats"} 0
# HELP mloc_query_seconds Query latency.
# TYPE mloc_query_seconds histogram
mloc_query_seconds_bucket{le="0.001"} 1
mloc_query_seconds_bucket{le="0.01"} 4
mloc_query_seconds_bucket{le="+Inf"} 5
mloc_query_seconds_sum 0.1
mloc_query_seconds_count 5
`

// TestLintAcceptsValid checks the linter passes a known-good payload.
func TestLintAcceptsValid(t *testing.T) {
	if probs := Lint(validExposition, true); len(probs) != 0 {
		t.Fatalf("valid payload rejected: %v", probs)
	}
}

// TestLintAcceptsRegistryOutput round-trips a populated registry
// through the linter.
func TestLintAcceptsRegistryOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("mloc_requests_total", "req", L("endpoint", "/query"), L("code", "200")).Add(3)
	r.Counter("mloc_requests_total", "req", L("endpoint", "/query"), L("code", "429")).Add(1)
	r.GaugeFunc("mloc_in_flight", "in flight", func() float64 { return 2 })
	h := r.Histogram("mloc_wait_seconds", "wait", DefSecondsBuckets(), L("endpoint", "/query"))
	h.Observe(0.004)
	h.Observe(12)
	r.CounterFunc("mloc_pfs_reads_total", "reads", func() float64 { return 9 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if probs := Lint(sb.String(), true); len(probs) != 0 {
		t.Fatalf("registry output rejected:\n%s\nproblems: %v", sb.String(), probs)
	}
}

// TestLintRejects table-drives one defect per case and asserts the
// linter reports it.
func TestLintRejects(t *testing.T) {
	cases := []struct {
		name    string
		payload string
		wantMsg string
	}{
		{
			"missing_family",
			"mloc_orphan_total 1\n",
			"no HELP/TYPE family",
		},
		{
			"missing_help",
			"# TYPE mloc_x_total counter\nmloc_x_total 1\n",
			"no HELP line",
		},
		{
			"missing_type",
			"# HELP mloc_x_total x\nmloc_x_total 1\n",
			"no TYPE line",
		},
		{
			"duplicate_sample",
			"# HELP mloc_x_total x\n# TYPE mloc_x_total counter\nmloc_x_total 1\nmloc_x_total 2\n",
			"duplicate sample",
		},
		{
			"duplicate_labeled_sample_reordered",
			"# HELP mloc_x_total x\n# TYPE mloc_x_total counter\n" +
				`mloc_x_total{a="1",b="2"} 1` + "\n" + `mloc_x_total{b="2",a="1"} 2` + "\n",
			"duplicate sample",
		},
		{
			"bad_value",
			"# HELP mloc_x_total x\n# TYPE mloc_x_total counter\nmloc_x_total one\n",
			"bad sample value",
		},
		{
			"unterminated_labels",
			"# HELP mloc_x_total x\n# TYPE mloc_x_total counter\nmloc_x_total{a=\"1\" 2\n",
			"label",
		},
		{
			"unquoted_label",
			"# HELP mloc_x_total x\n# TYPE mloc_x_total counter\nmloc_x_total{a=1} 2\n",
			"not quoted",
		},
		{
			"bad_type",
			"# HELP mloc_x_total x\n# TYPE mloc_x_total bogus\nmloc_x_total 1\n",
			"unknown TYPE",
		},
		{
			"noncumulative_buckets",
			"# HELP mloc_h_seconds h\n# TYPE mloc_h_seconds histogram\n" +
				`mloc_h_seconds_bucket{le="1"} 5` + "\n" + `mloc_h_seconds_bucket{le="+Inf"} 3` + "\n" +
				"mloc_h_seconds_sum 1\nmloc_h_seconds_count 3\n",
			"not cumulative",
		},
		{
			"unordered_buckets",
			"# HELP mloc_h_seconds h\n# TYPE mloc_h_seconds histogram\n" +
				`mloc_h_seconds_bucket{le="2"} 1` + "\n" + `mloc_h_seconds_bucket{le="1"} 2` + "\n" +
				`mloc_h_seconds_bucket{le="+Inf"} 2` + "\n" +
				"mloc_h_seconds_sum 1\nmloc_h_seconds_count 2\n",
			"ascending",
		},
		{
			"missing_inf_bucket",
			"# HELP mloc_h_seconds h\n# TYPE mloc_h_seconds histogram\n" +
				`mloc_h_seconds_bucket{le="1"} 1` + "\n" +
				"mloc_h_seconds_sum 1\nmloc_h_seconds_count 1\n",
			"no +Inf bucket",
		},
		{
			"count_mismatch",
			"# HELP mloc_h_seconds h\n# TYPE mloc_h_seconds histogram\n" +
				`mloc_h_seconds_bucket{le="+Inf"} 5` + "\n" +
				"mloc_h_seconds_sum 1\nmloc_h_seconds_count 4\n",
			"+Inf bucket",
		},
		{
			"missing_count",
			"# HELP mloc_h_seconds h\n# TYPE mloc_h_seconds histogram\n" +
				`mloc_h_seconds_bucket{le="+Inf"} 5` + "\n" +
				"mloc_h_seconds_sum 1\n",
			"no _count",
		},
		{
			"stray_le_label",
			"# HELP mloc_x_total x\n# TYPE mloc_x_total counter\n" +
				`mloc_x_total{le="1"} 2` + "\n",
			"unexpected le",
		},
		{
			"duplicate_label",
			"# HELP mloc_x_total x\n# TYPE mloc_x_total counter\n" +
				`mloc_x_total{a="1",a="2"} 2` + "\n",
			"duplicate label",
		},
		{
			"type_after_samples",
			"# HELP mloc_x_total x\nmloc_x_total 1\n# TYPE mloc_x_total counter\n",
			"after its samples",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			probs := Lint(tc.payload, true)
			if len(probs) == 0 {
				t.Fatalf("linter accepted bad payload:\n%s", tc.payload)
			}
			found := false
			for _, p := range probs {
				if strings.Contains(p.Msg, tc.wantMsg) {
					found = true
				}
			}
			if !found {
				t.Errorf("problems %v do not mention %q", probs, tc.wantMsg)
			}
		})
	}
}

// TestLintRepoNameRule checks the mloc_ prefix rule is only applied
// when asked, so the linter stays usable on third-party payloads.
func TestLintRepoNameRule(t *testing.T) {
	payload := "# HELP go_goroutines g\n# TYPE go_goroutines gauge\ngo_goroutines 8\n"
	if probs := Lint(payload, false); len(probs) != 0 {
		t.Fatalf("non-repo payload rejected without enforcement: %v", probs)
	}
	probs := Lint(payload, true)
	if len(probs) == 0 || !strings.Contains(probs[0].Msg, "mloc_") {
		t.Fatalf("repo name rule not enforced: %v", probs)
	}
}
