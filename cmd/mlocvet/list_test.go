package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mloc/internal/lint"
)

// TestListMatchesSuite checks -list prints exactly one line per
// analyzer, in suite order, with the analyzer's one-line doc.
func TestListMatchesSuite(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d (stderr: %s)", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	all := lint.All()
	// The suite ships fourteen analyzers (spmd-goroutine retired into
	// goleak; hotalloc, clockcharge and taintflow retired because tests
	// gate their defects); a drop here means a registration was lost,
	// not that the suite shrank on purpose.
	if len(all) != 14 {
		t.Fatalf("suite has %d analyzers, want 14", len(all))
	}
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines, suite has %d analyzers:\n%s", len(lines), len(all), stdout.String())
	}
	if !strings.Contains(stdout.String(), "bodylimit") {
		t.Errorf("-list output missing the body-limit analyzer")
	}
	for i, a := range all {
		fields := strings.Fields(lines[i])
		if len(fields) == 0 || fields[0] != a.Name {
			t.Errorf("line %d = %q, want it to start with %q", i, lines[i], a.Name)
			continue
		}
		if !strings.Contains(lines[i], a.Doc) {
			t.Errorf("line %d for %s lacks its doc %q: %q", i, a.Name, a.Doc, lines[i])
		}
	}
}

// TestListMatchesSARIFRules checks the -list catalog and the SARIF
// rules catalog are the same set: everything the gate can report is
// discoverable from the command line, and vice versa.
func TestListMatchesSARIFRules(t *testing.T) {
	var listOut, stderr bytes.Buffer
	if code := run([]string{"-list"}, &listOut, &stderr); code != 0 {
		t.Fatalf("-list: exit %d (stderr: %s)", code, stderr.String())
	}
	listed := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimRight(listOut.String(), "\n"), "\n") {
		if fields := strings.Fields(line); len(fields) > 0 {
			listed[fields[0]] = true
		}
	}

	var sarifOut bytes.Buffer
	stderr.Reset()
	// The clean fixture direction (exit 0) also proves rules are
	// emitted even when no findings fire.
	code := run([]string{"-sarif", "../../internal/lint/testdata/src/ctxfirst"}, &sarifOut, &stderr)
	if code != 0 && code != 1 {
		t.Fatalf("-sarif: exit %d (stderr: %s)", code, stderr.String())
	}
	var log sarifShape
	if err := json.Unmarshal(sarifOut.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output is not valid JSON: %v", err)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d SARIF runs, want 1", len(log.Runs))
	}
	rules := make(map[string]bool)
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		rules[r.ID] = true
	}
	for id := range rules {
		if !listed[id] {
			t.Errorf("SARIF rule %q is not in -list output", id)
		}
	}
	for name := range listed {
		if !rules[name] {
			t.Errorf("-list analyzer %q has no SARIF rule", name)
		}
	}
}
