// Package query defines the shared request/response types of every
// store in this repository (MLOC and the FastBit/SciDB/seq-scan
// baselines): value constraints, spatial constraints, match sets, and
// the per-component time accounting (I/O, decompression,
// reconstruction) the paper's Figure 6 breaks down.
package query

import (
	"fmt"

	"mloc/internal/binning"
	"mloc/internal/grid"
	"mloc/internal/plod"
)

// Request describes one data access. The zero value of each constraint
// means "unconstrained": a Request with only VC set is the paper's
// region query; only SC set is a value query; both set is the combined
// value-and-spatial access.
type Request struct {
	// VC is the value constraint; nil means no value filter.
	VC *binning.ValueConstraint
	// SC is the spatial constraint; nil means the whole domain.
	SC *grid.Region
	// PLoDLevel requests a reduced-precision read (1..7); 0 or 7 means
	// full precision. Stores without PLoD support ignore it.
	PLoDLevel int
	// IndexOnly requests positions without reconstructed values — the
	// paper's region-only access, which aligned bins answer from the
	// index alone.
	IndexOnly bool
	// Rows, when non-nil, further restricts the access to points whose
	// dimension-0 coordinate lies in one of these ranges: the row slabs a
	// cluster router sends one data node as a single call. Only the MLOC
	// store plans them; the baselines reject a request that sets them.
	Rows Rows
}

// RowRange is a half-open range [Lo, Hi) of dimension-0 rows.
type RowRange struct{ Lo, Hi int }

// Rows is an ascending list of non-empty, disjoint row ranges.
type Rows []RowRange

// validate checks the ranges against the grid's dimension-0 extent and
// the request's SC, whose dimension-0 bounds they must lie inside.
func (rs Rows) validate(shape grid.Shape, sc *grid.Region) error {
	if len(rs) == 0 {
		return fmt.Errorf("query: row list is empty")
	}
	lo, hi := 0, shape[0]
	if sc != nil {
		lo, hi = max(lo, sc.Lo[0]), min(hi, sc.Hi[0])
	}
	for i, r := range rs {
		if r.Lo >= r.Hi {
			return fmt.Errorf("query: row range %d [%d,%d) is empty", i, r.Lo, r.Hi)
		}
		if i > 0 && r.Lo < rs[i-1].Hi {
			return fmt.Errorf("query: row range %d [%d,%d) is not ascending and disjoint", i, r.Lo, r.Hi)
		}
		if r.Lo < lo || r.Hi > hi {
			return fmt.Errorf("query: row range %d [%d,%d) outside rows [%d,%d)", i, r.Lo, r.Hi, lo, hi)
		}
	}
	return nil
}

// Validate rejects malformed requests against a given grid shape.
func (r *Request) Validate(shape grid.Shape) error {
	if r.VC != nil && r.VC.Min > r.VC.Max {
		return fmt.Errorf("query: inverted value constraint [%v,%v]", r.VC.Min, r.VC.Max)
	}
	if r.SC != nil {
		if r.SC.Dims() != shape.Dims() {
			return fmt.Errorf("query: SC dimensionality %d != grid %d", r.SC.Dims(), shape.Dims())
		}
		for d := range r.SC.Lo {
			if r.SC.Lo[d] > r.SC.Hi[d] {
				return fmt.Errorf("query: inverted SC in dim %d", d)
			}
		}
	}
	if r.PLoDLevel < 0 || r.PLoDLevel > plod.MaxLevel {
		return fmt.Errorf("query: PLoD level %d out of [0,%d]", r.PLoDLevel, plod.MaxLevel)
	}
	if r.Rows != nil {
		return r.Rows.validate(shape, r.SC)
	}
	return nil
}

// Match is one qualifying point: its row-major linear index in the
// grid, and its value (NaN-free; unset when the request was IndexOnly).
// The json tags are the /query wire names: a match travels from the
// engine's gather to the response encoder as this one type.
type Match struct {
	Index int64   `json:"index"`
	Value float64 `json:"value"`
}

// Components is the virtual-time cost breakdown of a data access,
// matching the paper's Figure 6 decomposition.
type Components struct {
	// IO is seek+read time charged by the PFS model.
	IO float64
	// Decompress is codec time (modelled CPU seconds).
	Decompress float64
	// Reconstruct is filtering plus value/byte assembly time.
	Reconstruct float64
}

// Total returns the sum of the components.
func (c Components) Total() float64 { return c.IO + c.Decompress + c.Reconstruct }

// Add accumulates another breakdown.
func (c *Components) Add(o Components) {
	c.IO += o.IO
	c.Decompress += o.Decompress
	c.Reconstruct += o.Reconstruct
}

// MaxWith takes the component-wise running maximum; ranks of a parallel
// query combine their breakdowns this way because they proceed
// concurrently (completion is the slowest rank).
func (c *Components) MaxWith(o Components) {
	if o.IO > c.IO {
		c.IO = o.IO
	}
	if o.Decompress > c.Decompress {
		c.Decompress = o.Decompress
	}
	if o.Reconstruct > c.Reconstruct {
		c.Reconstruct = o.Reconstruct
	}
}

// Result is a completed access: the matches plus accounting.
type Result struct {
	Matches []Match
	// Total is the number of points the access matched when Matches was
	// cut short of it (a shard response capped by the server); anything
	// below len(Matches), the zero value included, means len(Matches).
	Total int
	// Time is the per-component virtual-time breakdown of the slowest
	// rank (queries complete when the last rank finishes).
	Time Components
	// BytesRead is the total data volume fetched from the PFS.
	BytesRead int64
	// BinsAccessed and BlocksRead count index/data structures touched
	// (meaningful for binned stores; zero otherwise).
	BinsAccessed int
	BlocksRead   int
	// CacheHits counts storage units whose decoded values were reused
	// from a shared decode cache instead of being read and decompressed
	// again (zero when no cache is attached).
	CacheHits int
	// BinsPruned counts leaf bins an index-only value query's tree walk
	// ruled out without reading any index or data bytes (zero on any
	// other query).
	BinsPruned int
	// BinsCovered counts leaf bins such a query answered from the index
	// alone: from vindex node bitmaps or from their own offsets.
	BinsCovered int
	// IndexNodesRead counts vindex nodes whose bitmaps were actually
	// fetched and decoded.
	IndexNodesRead int
}

// MatchCount is the number of points the access matched, listed in
// Matches or not.
func (r *Result) MatchCount() int { return max(r.Total, len(r.Matches)) }

// Sort orders matches by linear index; stores produce deterministic
// output through this before returning.
func (r *Result) Sort() { SortMatches(r.Matches) }

// Gather is the final gather of a parallel access (paper §III-D): the
// ranks' matches copied once into one slice of exactly their summed
// length and sorted, the volume counters summed, and the time breakdown
// of the slowest rank, the last of equal ones, because the access
// completes when its slowest rank does.
func Gather(ranks []Result) *Result {
	res := &Result{}
	n := 0
	for i := range ranks {
		n += len(ranks[i].Matches)
	}
	res.Matches = make([]Match, 0, n)
	var slowest float64
	for i := range ranks {
		r := &ranks[i]
		res.Matches = append(res.Matches, r.Matches...)
		res.addCounts(r)
		if t := r.Time.Total(); t >= slowest {
			slowest = t
			res.Time = r.Time
		}
	}
	res.Sort()
	return res
}

// addCounts adds o's volume counters to r's.
func (r *Result) addCounts(o *Result) {
	r.BytesRead += o.BytesRead
	r.BinsAccessed += o.BinsAccessed
	r.BlocksRead += o.BlocksRead
	r.CacheHits += o.CacheHits
	r.BinsPruned += o.BinsPruned
	r.BinsCovered += o.BinsCovered
	r.IndexNodesRead += o.IndexNodesRead
}

// MergeResults combines the partial results of shards that answered
// disjoint pieces of one query — the gather step of a scatter-gather
// fan-out. Matches are copied once into a slice of their summed length
// and ordered by linear index with SortMatches, which reproduces the
// single-store order exactly: shards that answered ascending slabs
// concatenate into an ascending list and cost one scan, while a shard
// that is unsorted, overlaps another or repeats an index is not
// trusted and falls through to the sort. Match totals and data-volume
// counters are summed, and the time breakdown is the component-wise
// maximum because shards proceed concurrently: the merged query
// completes when its slowest shard does, just as a parallel query
// completes with its slowest rank. nil parts are skipped so a caller
// can pass failed shards without filtering first; merging zero parts
// yields an empty Result.
func MergeResults(parts []*Result) *Result {
	merged := &Result{}
	listed := 0
	for _, p := range parts {
		if p != nil {
			listed += len(p.Matches)
		}
	}
	merged.Matches = make([]Match, 0, listed)
	for _, p := range parts {
		if p == nil {
			continue
		}
		merged.Matches = append(merged.Matches, p.Matches...)
		merged.Total += p.MatchCount()
		merged.Time.MaxWith(p.Time)
		merged.addCounts(p)
	}
	merged.Sort()
	return merged
}
