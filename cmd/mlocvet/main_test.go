package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// diagRe is the documented diagnostic shape: file:line: analyzer: message.
var diagRe = regexp.MustCompile(`^(.+\.go):(\d+): ([a-z-]+): (.+)$`)

// TestRunFlagsFindingsOnBadFixture drives the whole stack — loader,
// analyzers, suppression, formatting — over a known-bad fixture and
// checks the exit code and the diagnostic format.
func TestRunFlagsFindingsOnBadFixture(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"../../internal/lint/testdata/src/floatcmp"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run on bad fixture: exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("no diagnostics printed")
	}
	for _, line := range lines {
		if !diagRe.MatchString(line) {
			t.Errorf("diagnostic %q does not match file:line: analyzer: message", line)
		}
	}
	joined := stdout.String()
	if !strings.Contains(joined, "floatcmp:") {
		t.Errorf("expected a floatcmp diagnostic, got:\n%s", joined)
	}
}

// TestRunCleanPackage asserts a clean package exits 0 with no output.
func TestRunCleanPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"."}, &stdout, &stderr); code != 0 {
		t.Fatalf("run on cmd/mlocvet: exit %d, want 0\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run printed diagnostics:\n%s", stdout.String())
	}
}

// TestRunOnlySelectsAnalyzer checks -only filtering and the unknown-
// analyzer usage error.
func TestRunOnlySelectsAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-only", "errprefix", "../../internal/lint/testdata/src/floatcmp"}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("-only errprefix on the floatcmp fixture: exit %d, want 0 (output: %s)", code, stdout.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-only", "bogus", "."}, &stdout, &stderr); code != 2 {
		t.Errorf("-only bogus: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("missing unknown-analyzer message, stderr: %s", stderr.String())
	}
}

// TestRunList checks -list names every analyzer.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d, want 0", code)
	}
	for _, name := range []string{"errprefix", "floatcmp", "commescape", "uncheckederr", "exporteddoc"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
}

// TestRunLoadFailures checks that a pattern matching nothing, a
// missing directory and a package that does not type-check each exit
// 2 with the loader's message.
func TestRunLoadFailures(t *testing.T) {
	for _, pattern := range []string{"mloc/nosuch/...", "./nosuch", "./testdata/typeerr"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{pattern}, &stdout, &stderr); code != 2 {
			t.Errorf("run %s: exit %d, want 2 (stderr: %s)", pattern, code, stderr.String())
		}
		if !strings.HasPrefix(stderr.String(), "mlocvet: lint: ") {
			t.Errorf("run %s: stderr %q lacks the \"mlocvet: lint: \" prefix", pattern, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("run %s printed diagnostics:\n%s", pattern, stdout.String())
		}
	}
}
