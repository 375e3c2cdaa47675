package core

import (
	"fmt"
	"io"
	"strings"

	"mloc/internal/pfs"
	"mloc/internal/query"
)

// Plan describes how the engine would execute a request, without
// touching the PFS — the EXPLAIN of the MLOC query engine. It exposes
// the bin/chunk selection and the I/O the layout implies, which is what
// the layout-optimization levels exist to minimize.
type Plan struct {
	// Order is the store's level priority order.
	Order Order
	// AlignedBins and MisalignedBins are the VC-selected bin counts;
	// unconstrained requests select every bin as aligned.
	AlignedBins, MisalignedBins int
	// ChunksSelected is the number of chunks the SC maps to (all chunks
	// when unconstrained).
	ChunksSelected int64
	// Units is the number of (bin, chunk) storage units touched.
	Units int
	// UnitsWithData is how many of those need their data pieces read
	// (the rest are answered from the positional index alone).
	UnitsWithData int
	// PlanesRead is the PLoD plane count fetched per data unit (planes
	// mode; 1 in floats mode).
	PlanesRead int
	// IndexBytes and DataBytes estimate the I/O volume from the unit
	// metadata (exact, gap-merging aside).
	IndexBytes, DataBytes int64
	// Points is the total point count inside the touched units — the
	// upper bound on matches before VC/SC filtering.
	Points int64
	// Hierarchical reports whether the plan is an index-only value plan,
	// the one whose tree walk is accounted below.
	Hierarchical bool
	// BinsPruned, BinsCovered, and IndexNodes are the planner's tree
	// walk on an index-only value plan: leaves ruled out without any
	// read, leaves answered from the index alone (from node bitmaps or
	// their own offsets), and the vindex nodes those bitmaps come from.
	BinsPruned, BinsCovered, IndexNodes int
	// Measured, when non-nil, carries the observed cost breakdown of an
	// actual execution of this plan (set via Observe), so predicted and
	// measured cost sit side by side.
	Measured *MeasuredCost
}

// MeasuredCost is the observed execution breakdown attached to a Plan
// by Observe: the slowest rank's virtual-clock component split plus the
// aggregate I/O and cache behavior.
type MeasuredCost struct {
	// IOSeconds, DecompressSeconds, and ReconstructSeconds are the
	// slowest rank's virtual-clock components (the reported latency).
	IOSeconds, DecompressSeconds, ReconstructSeconds float64
	// BytesRead is the total PFS traffic across ranks.
	BytesRead int64
	// BlocksRead is the number of units actually decoded.
	BlocksRead int
	// CacheHits counts units served from the decode cache.
	CacheHits int
	// Matches is the result cardinality.
	Matches int
	// BinsPruned and BinsCovered are the tree walk's measured pruning
	// factors (zero off index-only value plans); IndexNodesRead counts
	// the vindex node bitmaps actually fetched.
	BinsPruned, BinsCovered, IndexNodesRead int
}

// TotalSeconds returns the summed component seconds.
func (m *MeasuredCost) TotalSeconds() float64 {
	return m.IOSeconds + m.DecompressSeconds + m.ReconstructSeconds
}

// String renders the measured section exactly as it appears inside
// Plan.String, so callers can print it on its own after Observe.
func (m *MeasuredCost) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  measured: %.6fs virtual (io %.6fs, decompress %.6fs, reconstruct %.6fs)\n",
		m.TotalSeconds(), m.IOSeconds, m.DecompressSeconds, m.ReconstructSeconds)
	fmt.Fprintf(&sb, "  measured I/O: %d bytes, %d blocks decoded, %d cache hits, %d matches\n",
		m.BytesRead, m.BlocksRead, m.CacheHits, m.Matches)
	fmt.Fprintf(&sb, "  pruning: %d bins pruned, %d covered via %d index nodes\n",
		m.BinsPruned, m.BinsCovered, m.IndexNodesRead)
	return sb.String()
}

// Observe attaches a result's measured cost breakdown to the plan, so
// String/Render print predicted-vs-actual in one place.
func (p *Plan) Observe(res *query.Result) {
	if res == nil {
		return
	}
	p.Measured = &MeasuredCost{
		IOSeconds:          res.Time.IO,
		DecompressSeconds:  res.Time.Decompress,
		ReconstructSeconds: res.Time.Reconstruct,
		BytesRead:          res.BytesRead,
		BlocksRead:         res.BlocksRead,
		CacheHits:          res.CacheHits,
		Matches:            len(res.Matches),
		BinsPruned:         res.BinsPruned,
		BinsCovered:        res.BinsCovered,
		IndexNodesRead:     res.IndexNodesRead,
	}
}

// Explain plans a request against the store without executing it: it
// compiles the plan the executor would run and prices it from the unit
// metadata.
func (s *Store) Explain(req *query.Request) (*Plan, error) {
	p, err := s.planQuery(req)
	if err != nil {
		return nil, err
	}
	out := &Plan{
		Order:          s.meta.order,
		AlignedBins:    p.aligned,
		MisalignedBins: p.misaligned,
		ChunksSelected: p.chunks,
		PlanesRead:     p.pieces,
		Hierarchical:   p.indexOnly && p.vc != nil,
		BinsPruned:     p.pruned,
		BinsCovered:    p.covered,
		IndexNodes:     len(p.nodes),
	}
	for _, n := range p.nodes {
		out.IndexBytes += s.vidx.lens[s.vidx.nodeID(n)]
	}
	var pieces []pfs.Extent
	for _, t := range p.tasks {
		u := &s.meta.bins[t.bin].units[t.unit]
		out.Units++
		out.Points += int64(u.count)
		out.IndexBytes += u.indexLen
		if t.needData {
			out.UnitsWithData++
			pieces = u.appendPieces(pieces[:0], p.pieces)
			for _, e := range pieces {
				out.DataBytes += e.Len
			}
		}
	}
	return out, nil
}

// String renders a human-readable plan.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan (order %s):\n", p.Order)
	fmt.Fprintf(&sb, "  bins: %d aligned, %d misaligned\n", p.AlignedBins, p.MisalignedBins)
	fmt.Fprintf(&sb, "  chunks selected: %d\n", p.ChunksSelected)
	fmt.Fprintf(&sb, "  units: %d touched, %d with data reads (%d planes each)\n",
		p.Units, p.UnitsWithData, p.PlanesRead)
	fmt.Fprintf(&sb, "  est. I/O: %d index bytes + %d data bytes over %d candidate points\n",
		p.IndexBytes, p.DataBytes, p.Points)
	if p.Hierarchical {
		fmt.Fprintf(&sb, "  index tree: %d bins pruned, %d covered via %d aggregated nodes\n",
			p.BinsPruned, p.BinsCovered, p.IndexNodes)
	}
	if p.Measured != nil {
		sb.WriteString(p.Measured.String())
	}
	return sb.String()
}

// Render writes the human-readable plan to w.
func (p *Plan) Render(w io.Writer) error {
	_, err := io.WriteString(w, p.String())
	return err
}
