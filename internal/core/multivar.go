package core

import (
	"context"
	"fmt"

	"mloc/internal/bitmap"
	"mloc/internal/obs"
	"mloc/internal/query"
)

// MultiVarRequest describes the paper's multi-variable access pattern
// (§III-D4): spatial positions are selected by constraints on one
// variable, then other variables' values are fetched at those
// positions. E.g. "temperature where humidity > 90%".
type MultiVarRequest struct {
	// Select is the request evaluated on the selecting variable; its
	// matches define the position set. It is forced to IndexOnly
	// internally (only positions are needed).
	Select query.Request
	// FetchVars names the variables whose values are returned at the
	// selected positions.
	FetchVars []string
}

// MultiVarResult maps each fetched variable to its matches.
type MultiVarResult struct {
	// Positions is the bitmap of selected linear indices.
	Positions *bitmap.Bitmap
	// Values[var] holds the fetched matches for each requested variable.
	Values map[string][]query.Match
	// Time is the end-to-end component breakdown (selection plus the
	// slowest fetch).
	Time query.Components
	// BytesRead sums PFS traffic across both phases.
	BytesRead int64
}

// MultiVarQuery runs the two-phase multi-variable access across the
// named stores: phase 1 answers the selection as a region-only query on
// selectVar and sets the position bitmap from its matches; phase 2
// retrieves each fetch variable's values at those positions.
//
// All stores must share one grid shape. It is MultiVarQueryContext
// with a background context.
func MultiVarQuery(stores map[string]*Store, selectVar string, req MultiVarRequest, ranks int) (*MultiVarResult, error) {
	return MultiVarQueryContext(context.Background(), stores, selectVar, req, ranks)
}

// MultiVarQueryContext is MultiVarQuery under a context: cancellation
// propagates into both the selection query and every per-variable
// fetch.
func MultiVarQueryContext(ctx context.Context, stores map[string]*Store, selectVar string, req MultiVarRequest, ranks int) (*MultiVarResult, error) {
	sel, ok := stores[selectVar]
	if !ok {
		return nil, fmt.Errorf("core: unknown selecting variable %q", selectVar)
	}
	for _, fv := range req.FetchVars {
		st, ok := stores[fv]
		if !ok {
			return nil, fmt.Errorf("core: unknown fetch variable %q", fv)
		}
		if !st.Shape().Equal(sel.Shape()) {
			return nil, fmt.Errorf("core: variable %q shape %v differs from %q shape %v",
				fv, st.Shape(), selectVar, sel.Shape())
		}
	}

	// Phase 1: region-only selection. The paper synchronizes one
	// partial bitmap per process; here the query already gathers every
	// rank's matches, so one bitmap is set from them and nothing is
	// reduced.
	phase1 := req.Select
	phase1.IndexOnly = true
	sctx, ss := obs.StartSpan(ctx, "select")
	ss.SetString("var", selectVar)
	selRes, err := sel.QueryContext(sctx, &phase1, ranks)
	if err != nil {
		ss.End()
		return nil, fmt.Errorf("core: selection on %q: %w", selectVar, err)
	}
	n := sel.Shape().Elems()
	positions := bitmap.New(n)
	for _, m := range selRes.Matches {
		positions.Set(m.Index)
	}
	ss.SetInt("positions", int64(len(selRes.Matches)))
	ss.SetFloat("virt_total_s", selRes.Time.Total())
	ss.End()

	out := &MultiVarResult{
		Positions: positions,
		Values:    make(map[string][]query.Match, len(req.FetchVars)),
		Time:      selRes.Time,
		BytesRead: selRes.BytesRead,
	}

	// Phase 2: value retrieval on each fetch variable at the selected
	// positions. The same index positions apply to every variable
	// because the variables share the grid (paper: "indices derived by
	// the first step can be directly used on other variables").
	var fetchSlowest query.Components
	for _, fv := range req.FetchVars {
		fctx, vs := obs.StartSpan(ctx, "fetch_var")
		vs.SetString("var", fv)
		fRes, err := stores[fv].FetchAtContext(fctx, positions, ranks)
		if err != nil {
			vs.End()
			return nil, fmt.Errorf("core: fetch of %q: %w", fv, err)
		}
		out.Values[fv] = fRes.Matches
		out.BytesRead += fRes.BytesRead
		if fRes.Time.Total() > fetchSlowest.Total() {
			fetchSlowest = fRes.Time
		}
		vs.SetInt("matches", int64(len(fRes.Matches)))
		vs.SetFloat("virt_total_s", fRes.Time.Total())
		vs.End()
	}
	out.Time.Add(fetchSlowest)
	return out, nil
}

// FetchAtContext retrieves the variable's values at the positions set
// in the bitmap, reading only the storage units that contain selected
// points. It is the query pipeline with the bitmap as the point
// predicate: the chunks holding a selected position are planned in
// every bin, a unit's data is read only once its decoded index shows a
// selected point, and cancellation is honored at every bin boundary.
func (s *Store) FetchAtContext(ctx context.Context, positions *bitmap.Bitmap, ranks int) (*query.Result, error) {
	return s.execute(ctx, ranks, func() (*plan, error) { return s.planFetch(positions) })
}
