package lint

import (
	"mloc/internal/lint/flow"
)

// TaintFlow reports untrusted values — HTTP request data, JSON decoded
// from peer node responses, varint-decoded wire bytes — reaching
// allocation sizes, slice bounds, indexes, loop bounds, or sleep
// durations without a dominating bounds check, across function calls.
// It also reports untrusted strings reaching metric label values and
// metric names: every distinct label value materializes a new time
// series in the obs registry (and in any scraping Prometheus), so an
// attacker-chosen label is an unbounded-cardinality memory leak.
// Labels must come from a finite set: literals, config, or a vetted
// roster.
//
// The check rides on internal/lint/flow's interprocedural taint
// summaries: a callee that bounds-checks before returning yields clean
// results (sanitizers compose through the call graph), while a callee
// whose parameter reaches a sink unguarded surfaces that sink at every
// tainted call site, with the call path in the message.
var TaintFlow = &Analyzer{
	Name:       "taintflow",
	Doc:        "untrusted values must not reach allocations, loop bounds, indexes, timeouts, or metric labels without a bounds check",
	RunProgram: runTaintFlow,
}

func runTaintFlow(pass *ProgramPass) {
	for _, f := range flow.BuildTaint(pass.Flow).Findings() {
		via := ""
		if f.Path != "" {
			via = " (via " + f.Path + ")"
		}
		if f.Kind == flow.SinkLabel {
			pass.Reportf(f.Pos, "metric label or name %s derives from untrusted input%s; label cardinality must be finite", f.Expr, via)
			continue
		}
		pass.Reportf(f.Pos, "untrusted value %s reaches %s without a bounds check%s", f.Expr, f.Kind, via)
	}
}
