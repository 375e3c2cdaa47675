package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestQueryLogRingAndFilter(t *testing.T) {
	l := NewQueryLog(4)
	for i := 0; i < 6; i++ {
		l.Append(QueryRecord{Store: "planes", Var: "phi", WallMS: float64(i), UnixMS: 1})
	}
	if l.Len() != 4 {
		t.Fatalf("ring holds %d records, want 4", l.Len())
	}
	all := l.Snapshot(QueryFilter{})
	if len(all) != 4 {
		t.Fatalf("snapshot returned %d records, want 4", len(all))
	}
	// Newest first, and the two oldest records were evicted.
	if all[0].Seq != 6 || all[3].Seq != 3 {
		t.Errorf("snapshot order wrong: first seq %d last seq %d", all[0].Seq, all[3].Seq)
	}

	l.Append(QueryRecord{Store: "chunks", Var: "rho", WallMS: 250, UnixMS: 1})
	if got := l.Snapshot(QueryFilter{Var: "rho"}); len(got) != 1 || got[0].Store != "chunks" {
		t.Errorf("var filter returned %+v", got)
	}
	if got := l.Snapshot(QueryFilter{Store: "planes"}); len(got) != 3 {
		t.Errorf("store filter returned %d records, want 3", len(got))
	}
	if got := l.Snapshot(QueryFilter{MinWall: 100 * time.Millisecond}); len(got) != 1 || got[0].Var != "rho" {
		t.Errorf("min-latency filter returned %+v", got)
	}
	var nilLog *QueryLog
	nilLog.Append(QueryRecord{})
	if nilLog.Snapshot(QueryFilter{}) != nil || nilLog.Len() != 0 {
		t.Error("nil QueryLog is not a no-op")
	}
}

func TestQueryLogConcurrentAppend(t *testing.T) {
	l := NewQueryLog(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Append(QueryRecord{Var: "phi", UnixMS: 1})
				l.Snapshot(QueryFilter{Var: "phi"})
			}
		}()
	}
	wg.Wait()
	if l.Len() != 32 {
		t.Fatalf("ring holds %d records, want 32", l.Len())
	}
	recs := l.Snapshot(QueryFilter{})
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq >= recs[i-1].Seq {
			t.Fatalf("snapshot not newest-first: seq %d before %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestSelectivityClass(t *testing.T) {
	cases := []struct {
		matches int
		domain  int64
		want    string
	}{
		{0, 1024, "empty"},
		{5, 0, "unknown"},
		{1, 100000, "point"},
		{50, 10000, "narrow"},
		{1000, 10000, "medium"},
		{5000, 10000, "broad"},
	}
	for _, c := range cases {
		if got := SelectivityClass(c.matches, c.domain); got != c.want {
			t.Errorf("SelectivityClass(%d, %d) = %q, want %q", c.matches, c.domain, got, c.want)
		}
	}
}

func TestParseSLOObjectives(t *testing.T) {
	objs, err := ParseSLOObjectives(" 1s, 100ms,1s ")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(objs) != 2 || objs[0] != 100*time.Millisecond || objs[1] != time.Second {
		t.Fatalf("parsed %v, want sorted dedup [100ms 1s]", objs)
	}
	for _, bad := range []string{"", ",", "fast", "-5ms", "0s"} {
		if _, err := ParseSLOObjectives(bad); err == nil {
			t.Errorf("objective list %q accepted", bad)
		}
	}
}

func TestSLOCountersAndExposition(t *testing.T) {
	reg := NewRegistry()
	objs, err := ParseSLOObjectives(DefaultSLOObjectives)
	if err != nil {
		t.Fatalf("parse defaults: %v", err)
	}
	slo := NewSLO(reg, objs)
	slo.Observe(50 * time.Millisecond)  // ok for both objectives
	slo.Observe(500 * time.Millisecond) // breaches 100ms, ok for 1s
	slo.Observe(2 * time.Second)        // breaches both

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		`mloc_slo_query_ok_total{objective="100ms"} 1`,
		`mloc_slo_query_breach_total{objective="100ms"} 2`,
		`mloc_slo_query_ok_total{objective="1s"} 2`,
		`mloc_slo_query_breach_total{objective="1s"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if probs := Lint(out, true); len(probs) != 0 {
		t.Errorf("slo exposition fails lint: %v", probs)
	}
	var nilSLO *SLO
	nilSLO.Observe(time.Second) // a nil SLO is a no-op: no panic
}

func TestHistogramExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("mloc_test_latency_seconds", "test latency.", []float64{0.1, 1})
	h.ObserveExemplar(0.05, 7)
	h.ObserveExemplar(0.5, 0) // no trace id: counted, no exemplar
	h.ObserveExemplar(5, 42)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, `mloc_test_latency_seconds_bucket{le="0.1"} 1 # {trace_id="7"} 0.05`) {
		t.Errorf("first bucket missing its exemplar:\n%s", out)
	}
	if !strings.Contains(out, `mloc_test_latency_seconds_bucket{le="1"} 2`+"\n") {
		t.Errorf("untraced observation grew an exemplar:\n%s", out)
	}
	if !strings.Contains(out, `mloc_test_latency_seconds_bucket{le="+Inf"} 3 # {trace_id="42"} 5`) {
		t.Errorf("+Inf bucket missing its exemplar:\n%s", out)
	}
	if probs := Lint(out, true); len(probs) != 0 {
		t.Errorf("exemplar exposition fails lint: %v", probs)
	}
}

func TestLintExemplarFormat(t *testing.T) {
	head := "# HELP mloc_x_seconds x\n# TYPE mloc_x_seconds histogram\n"
	tail := "mloc_x_seconds_bucket{le=\"+Inf\"} 1\nmloc_x_seconds_sum 0.05\nmloc_x_seconds_count 1\n"
	good := head + `mloc_x_seconds_bucket{le="0.1"} 1 # {trace_id="3"} 0.05` + "\n" + tail
	if probs := Lint(good, true); len(probs) != 0 {
		t.Errorf("valid exemplar rejected: %v", probs)
	}
	bad := map[string]string{
		"exemplar off bucket": head + "mloc_x_seconds_bucket{le=\"0.1\"} 1\n" + tail +
			`# HELP mloc_y y` + "\n# TYPE mloc_y counter\nmloc_y 1 # {trace_id=\"3\"} 0.05\n",
		"wrong label":     head + `mloc_x_seconds_bucket{le="0.1"} 1 # {span_id="3"} 0.05` + "\n" + tail,
		"bad trace id":    head + `mloc_x_seconds_bucket{le="0.1"} 1 # {trace_id="x"} 0.05` + "\n" + tail,
		"value above le":  head + `mloc_x_seconds_bucket{le="0.1"} 1 # {trace_id="3"} 0.5` + "\n" + tail,
		"no value":        head + `mloc_x_seconds_bucket{le="0.1"} 1 # {trace_id="3"}` + "\n" + tail,
		"no labels":       head + `mloc_x_seconds_bucket{le="0.1"} 1 # 0.05` + "\n" + tail,
		"garbage trailer": head + `mloc_x_seconds_bucket{le="0.1"} 1 zebra` + "\n" + tail,
	}
	for name, payload := range bad {
		if probs := Lint(payload, true); len(probs) == 0 {
			t.Errorf("%s accepted:\n%s", name, payload)
		}
	}
}
