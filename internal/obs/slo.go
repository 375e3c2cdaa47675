package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// SLO objectives
//
// A small fixed set of latency objectives (configured via -slo as a
// comma-separated duration list) turns the query stream into
// per-objective ok/breach counters — the two numbers an availability
// dashboard divides. The objective label values come from static
// configuration, never from request data, so their cardinality is
// bounded by the flag.

// DefaultSLOObjectives is the objective list used when none is
// configured.
const DefaultSLOObjectives = "100ms,1s"

// ParseSLOObjectives parses a comma-separated list of Go durations
// ("100ms,1s") into a sorted, deduplicated objective list.
func ParseSLOObjectives(s string) ([]time.Duration, error) {
	var out []time.Duration
	seen := make(map[time.Duration]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, err := time.ParseDuration(part)
		if err != nil {
			return nil, fmt.Errorf("obs: slo objective %q: %w", part, err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("obs: slo objective %q must be positive", part)
		}
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("obs: slo objective list %q is empty", s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// SLO tracks per-objective latency counters. The nil *SLO is a valid
// no-op.
type SLO struct {
	objectives []time.Duration
	ok         []*Counter
	breach     []*Counter
}

// NewSLO registers mloc_slo_query_ok_total and
// mloc_slo_query_breach_total series (one per objective) on reg and
// returns the observer. A nil registry or empty objective list yields
// a nil (no-op) SLO.
func NewSLO(reg *Registry, objectives []time.Duration) *SLO {
	if reg == nil || len(objectives) == 0 {
		return nil
	}
	s := &SLO{objectives: append([]time.Duration(nil), objectives...)}
	for _, obj := range s.objectives {
		lbl := L("objective", obj.String())
		s.ok = append(s.ok, reg.Counter("mloc_slo_query_ok_total",
			"Queries that finished within the latency objective.", lbl))
		s.breach = append(s.breach, reg.Counter("mloc_slo_query_breach_total",
			"Queries that exceeded the latency objective.", lbl))
	}
	return s
}

// Observe classifies one query's wall latency against every objective.
func (s *SLO) Observe(wall time.Duration) {
	if s == nil {
		return
	}
	for i, obj := range s.objectives {
		if wall <= obj {
			s.ok[i].Inc()
		} else {
			s.breach[i].Inc()
		}
	}
}
