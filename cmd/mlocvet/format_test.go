package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"mloc/internal/lint"
)

const badFixture = "../../internal/lint/testdata/src/floatcmp"

// sarifShape mirrors the parts of SARIF 2.1.0 the gate depends on.
type sarifShape struct {
	Schema  string `json:"$schema"`
	Version string `json:"version"`
	Runs    []struct {
		Tool struct {
			Driver struct {
				Name  string `json:"name"`
				Rules []struct {
					ID string `json:"id"`
				} `json:"rules"`
			} `json:"driver"`
		} `json:"tool"`
		Results []struct {
			RuleID  string `json:"ruleId"`
			Level   string `json:"level"`
			Message struct {
				Text string `json:"text"`
			} `json:"message"`
			Locations []struct {
				PhysicalLocation struct {
					ArtifactLocation struct {
						URI string `json:"uri"`
					} `json:"artifactLocation"`
					Region struct {
						StartLine int `json:"startLine"`
					} `json:"region"`
				} `json:"physicalLocation"`
			} `json:"locations"`
		} `json:"results"`
	} `json:"runs"`
}

// TestRunSARIFOutput checks -sarif emits a structurally valid SARIF
// 2.1.0 log whose rules cover the whole suite.
func TestRunSARIFOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sarif", badFixture}, &stdout, &stderr); code != 1 {
		t.Fatalf("-sarif on bad fixture: exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	var log sarifShape
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif") {
		t.Errorf("version %q schema %q, want SARIF 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	r := log.Runs[0]
	if r.Tool.Driver.Name != "mlocvet" {
		t.Errorf("driver name %q, want mlocvet", r.Tool.Driver.Name)
	}
	if len(r.Tool.Driver.Rules) != len(lint.All()) {
		t.Errorf("%d rules, want one per analyzer (%d)", len(r.Tool.Driver.Rules), len(lint.All()))
	}
	if len(r.Results) == 0 {
		t.Fatal("no results on a bad fixture")
	}
	sawFloatcmp := false
	for _, res := range r.Results {
		if res.RuleID == "floatcmp" {
			sawFloatcmp = true
		}
		if res.Message.Text == "" || len(res.Locations) != 1 {
			t.Errorf("malformed result: %+v", res)
			continue
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || loc.Region.StartLine <= 0 {
			t.Errorf("malformed location: %+v", loc)
		}
	}
	if !sawFloatcmp {
		t.Error("no floatcmp result on the floatcmp fixture")
	}
}

// vetRepoBaseline reads the recorded full-repo pass time from the
// committed BENCH_build.json checkpoint; zero when the file or field
// is absent.
func vetRepoBaseline(b *testing.B) time.Duration {
	b.Helper()
	data, err := os.ReadFile("../../BENCH_build.json")
	if err != nil {
		return 0
	}
	var doc struct {
		VetRepo struct {
			NsOp int64 `json:"ns_op"`
		} `json:"vet_repo"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0
	}
	return time.Duration(doc.VetRepo.NsOp)
}

// BenchmarkMlocvetRepo times the full-repo analyzer pass and guards
// the CI budget two ways: an absolute ceiling (the gate runs on every
// push, so one pass must stay within seconds, not minutes), and a
// relative one — a pass must not blow past 2x the recorded vet_repo
// checkpoint in BENCH_build.json. The relative budget is floored at 4s
// so a slow CI machine does not fail a checkpoint recorded on a fast
// one, yet a loader that type-checks the standard library from source
// again (over 5s a pass on a 2-vCPU Xeon, against 1.5s from export
// data) does fail it.
func BenchmarkMlocvetRepo(b *testing.B) {
	budget := 30 * time.Second
	if base := vetRepoBaseline(b); base > 0 {
		budget = min(max(2*base, 4*time.Second), budget)
	}
	for i := 0; i < b.N; i++ {
		var stdout, stderr bytes.Buffer
		start := time.Now()
		if code := run([]string{"../../..."}, &stdout, &stderr); code != 0 {
			b.Fatalf("full-repo run: exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
		}
		if d := time.Since(start); d > budget {
			b.Fatalf("full-repo pass took %v, budget %v", d, budget)
		}
	}
	b.ReportMetric(float64(len(lint.All())), "analyzers/op")
}
