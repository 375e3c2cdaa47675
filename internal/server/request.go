package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"mloc/internal/binning"
	"mloc/internal/grid"
	"mloc/internal/plod"
	"mloc/internal/query"
)

// Wire-format limits. They bound what a remote caller can make the
// engine allocate before any store-specific validation runs.
const (
	maxVarNameLen = 128
	maxWireDims   = 16
	maxWireRanks  = 128
	// MaxWireRows caps a request's row ranges. The router sends a node
	// at most one range per two slabs, so it refuses SlabsPerVar above
	// twice this.
	MaxWireRows = 1024
	// MaxBodyBytes caps a /query request body, on both roles.
	MaxBodyBytes = 1 << 20
)

// VCWire is the JSON shape of a value constraint. Pointers distinguish
// "absent" from zero so a half-open request is an explicit error rather
// than a silent [0, hi] or [lo, 0].
type VCWire struct {
	Min *float64 `json:"min"`
	Max *float64 `json:"max"`
}

// SCWire is the JSON shape of a spatial constraint: half-open
// [lo, hi) bounds per dimension, matching grid.Region.
type SCWire struct {
	Lo []int `json:"lo"`
	Hi []int `json:"hi"`
}

// QueryWire is the JSON request body of POST /query.
type QueryWire struct {
	// Var names the store to query.
	Var string `json:"var"`
	// VC and SC are the optional value and spatial constraints.
	VC *VCWire `json:"vc,omitempty"`
	SC *SCWire `json:"sc,omitempty"`
	// PLoD requests a reduced-precision read (0 = full precision).
	PLoD int `json:"plod,omitempty"`
	// IndexOnly requests positions without values.
	IndexOnly bool `json:"index_only,omitempty"`
	// Ranks overrides the server's default parallelism (0 = default).
	Ranks int `json:"ranks,omitempty"`
	// Rows lists ascending, disjoint, half-open dimension-0 ranges
	// [lo, hi) inside the SC: the slabs a cluster router sends one data
	// node as one call. It belongs to the router↔node hop only; a router
	// refuses a client request that carries it. Each range is decoded as
	// a slice, not a [2]int, so that a range of any other length is
	// rejected rather than silently cut or padded.
	Rows [][]int `json:"rows,omitempty"`
}

// ParseRequest decodes and bounds-checks one JSON query body. It is
// deliberately strict — unknown fields, trailing data, and out-of-range
// values are errors — so malformed clients fail loudly with a 400
// instead of silently querying something else.
func ParseRequest(r io.Reader) (*QueryWire, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var w QueryWire
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("server: decoding request: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, fmt.Errorf("server: trailing data after request body")
	}
	if w.Var == "" {
		return nil, fmt.Errorf("server: request is missing \"var\"")
	}
	if len(w.Var) > maxVarNameLen {
		return nil, fmt.Errorf("server: variable name longer than %d bytes", maxVarNameLen)
	}
	if w.PLoD < 0 || w.PLoD > plod.MaxLevel {
		return nil, fmt.Errorf("server: plod %d out of [0,%d]", w.PLoD, plod.MaxLevel)
	}
	if w.Ranks < 0 || w.Ranks > maxWireRanks {
		return nil, fmt.Errorf("server: ranks %d out of [0,%d]", w.Ranks, maxWireRanks)
	}
	if w.VC != nil {
		if w.VC.Min == nil || w.VC.Max == nil {
			return nil, fmt.Errorf("server: vc requires both min and max")
		}
		if math.IsNaN(*w.VC.Min) || math.IsNaN(*w.VC.Max) {
			return nil, fmt.Errorf("server: vc bounds must not be NaN")
		}
		if *w.VC.Min > *w.VC.Max {
			return nil, fmt.Errorf("server: inverted vc [%v,%v]", *w.VC.Min, *w.VC.Max)
		}
	}
	if w.SC != nil {
		if len(w.SC.Lo) == 0 || len(w.SC.Lo) != len(w.SC.Hi) {
			return nil, fmt.Errorf("server: sc lo/hi lengths %d/%d must match and be nonzero",
				len(w.SC.Lo), len(w.SC.Hi))
		}
		if len(w.SC.Lo) > maxWireDims {
			return nil, fmt.Errorf("server: sc has %d dimensions, limit %d", len(w.SC.Lo), maxWireDims)
		}
		for d := range w.SC.Lo {
			if w.SC.Lo[d] < 0 || w.SC.Hi[d] < 0 {
				return nil, fmt.Errorf("server: negative sc bound in dim %d", d)
			}
			if w.SC.Lo[d] > w.SC.Hi[d] {
				return nil, fmt.Errorf("server: inverted sc in dim %d [%d,%d]", d, w.SC.Lo[d], w.SC.Hi[d])
			}
		}
	}
	if w.Rows != nil && (len(w.Rows) == 0 || len(w.Rows) > MaxWireRows) {
		return nil, fmt.Errorf("server: rows lists %d ranges, want 1 to %d", len(w.Rows), MaxWireRows)
	}
	for i, r := range w.Rows {
		if len(r) != 2 {
			return nil, fmt.Errorf("server: row range %d has %d bounds, want 2", i, len(r))
		}
	}
	return &w, nil
}

// ToRequest converts the wire form into an engine request against a
// concrete grid shape, re-validating through the engine's own rules.
func (w *QueryWire) ToRequest(shape grid.Shape) (*query.Request, error) {
	req := &query.Request{PLoDLevel: w.PLoD, IndexOnly: w.IndexOnly}
	if w.VC != nil {
		req.VC = &binning.ValueConstraint{Min: *w.VC.Min, Max: *w.VC.Max}
	}
	if w.SC != nil {
		if len(w.SC.Lo) != shape.Dims() {
			return nil, fmt.Errorf("server: sc dimensionality %d != grid %d", len(w.SC.Lo), shape.Dims())
		}
		region, err := grid.NewRegion(w.SC.Lo, w.SC.Hi)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		region = region.Clip(shape)
		req.SC = &region
	}
	if w.Rows != nil {
		req.Rows = make(query.Rows, len(w.Rows))
		for i, r := range w.Rows {
			req.Rows[i] = query.RowRange{Lo: r[0], Hi: r[1]}
		}
	}
	if err := req.Validate(shape); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return req, nil
}
