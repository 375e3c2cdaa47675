// Package experiments regenerates every table and figure of the MLOC
// paper's evaluation (§IV) on the simulated substrate, at a documented
// scale factor. Each experiment returns a TableResult that renders the
// same rows/series the paper reports; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Timing semantics: response times are virtual seconds from the PFS
// cost model plus measured codec/filter CPU seconds, both accumulated
// on per-rank clocks. The simulator is scale-aware (pfs.Config.ByteScale
// and CPUScale are set to the byte factor between paper geometry and
// the scaled dataset), so transfer and compute times come out directly
// at paper scale while seek/open latencies — which do not depend on
// data volume — remain constant. See DESIGN.md §6.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"mloc/internal/binning"
	"mloc/internal/core"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

// Params controls experiment cost and determinism.
type Params struct {
	// Queries is the number of random queries averaged per table cell
	// (the paper uses 100; the default here is 5 to keep the harness
	// fast — raise it for tighter averages).
	Queries int
	// Ranks is the MPI process count (paper: 8 for the 8 GB tables).
	Ranks int
	// Seed drives all random workload generation.
	Seed int64
}

// DefaultParams mirrors the paper's setup at reduced query counts.
func DefaultParams() Params {
	return Params{Queries: 5, Ranks: 8, Seed: 1}
}

// normalize fills unset fields from DefaultParams.
func (p *Params) normalize() {
	d := DefaultParams()
	if p.Queries < 1 {
		p.Queries = d.Queries
	}
	if p.Ranks < 1 {
		p.Ranks = d.Ranks
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
}

// Experiment is one table, figure, ablation or extension of the
// evaluation.
type Experiment struct {
	// Kind is "table", "figure", "ablation" or "extension"; ID selects
	// within it ("2" for Table II, "curve" for the curve ablation), as
	// cmd/benchtables' flag of the same name does.
	Kind, ID string
	Name     string
	Run      func(Params) (*TableResult, error)
}

// Experiments is the whole evaluation in the order cmd/benchtables runs
// it.
var Experiments = []Experiment{
	{"table", "1", "Table I", Table1},
	{"table", "2", "Table II", Table2},
	{"table", "3", "Table III", Table3},
	{"table", "4", "Table IV", Table4},
	{"table", "5", "Table V", Table5},
	{"table", "6", "Table VI", Table6},
	{"table", "7", "Table VII", Table7},
	{"figure", "6", "Figure 6", Figure6},
	{"figure", "7", "Figure 7", Figure7},
	{"figure", "8", "Figure 8", Figure8},
	{"ablation", "binning", "Ablation: binning", AblationBinning},
	{"ablation", "curve", "Ablation: curve", AblationCurve},
	{"ablation", "assignment", "Ablation: assignment", AblationAssignment},
	{"ablation", "plodfill", "Ablation: PLoD fill", AblationPLoDFill},
	{"ablation", "fileorg", "Ablation: file organization", AblationFileOrg},
	{"extension", "multires", "Extension: multires comparison", ExtensionMultires},
}

// TableResult is a rendered experiment: header, rows, notes.
type TableResult struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *TableResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(&sb, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}
	fmt.Fprintln(&sb)
	return sb.String()
}

// Render writes the aligned-text table to w.
func (t *TableResult) Render(w io.Writer) error {
	_, err := io.WriteString(w, t.String())
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// workload couples a scaled dataset with its chunking and the byte
// scale factor to the paper's geometry.
type workload struct {
	key    workloadKey // its name in the fixture
	name   string
	ds     *datagen.Dataset
	varr   string // variable queried
	chunk  []int
	factor float64 // paperBytes / scaledBytes
}

// rawBytes returns the scaled raw size of the queried variable.
func (w *workload) rawBytes() int64 { return 8 * w.ds.Shape.Elems() }

// data returns the queried variable's values.
func (w *workload) data() []float64 {
	v, err := w.ds.Var(w.varr)
	if err != nil {
		panic(err)
	}
	return v.Data
}

// mlocVariant names the three MLOC configurations the paper compares.
type mlocVariant string

// The paper's three MLOC configurations.
const (
	VariantCOL mlocVariant = "MLOC-COL"
	VariantISO mlocVariant = "MLOC-ISO"
	VariantISA mlocVariant = "MLOC-ISA"
)

func mlocConfig(v mlocVariant, chunk []int) core.Config {
	switch v {
	case VariantISO:
		return core.ISOConfig(chunk)
	case VariantISA:
		return core.ISAConfig(chunk)
	default:
		return core.DefaultConfig(chunk)
	}
}

// newScaledFS creates a PFS whose cost model is scale-aware for the
// workload: transfer time and charged CPU are multiplied by the byte
// factor between paper geometry and the scaled dataset, while seek and
// open latencies stay constant. Reported virtual times are therefore
// directly at paper scale.
func newScaledFS(w *workload) *pfs.Sim {
	cfg := pfs.DefaultConfig()
	cfg.ByteScale = w.factor
	cfg.CPUScale = w.factor
	return pfs.New(cfg)
}

// queryable abstracts the four systems for the timing loops.
type queryable interface {
	Query(req *query.Request, ranks int) (*query.Result, error)
}

// avgQueryTime runs n random queries built by gen and returns the mean
// virtual response time and mean component breakdown. The PFS stats
// are reset before each query (the paper clears the cache between
// rounds).
func avgQueryTime(sys queryable, fs *pfs.Sim, gen func(i int) *query.Request, n, ranks int) (float64, query.Components, error) {
	var total float64
	var comps query.Components
	for i := 0; i < n; i++ {
		fs.ResetStats()
		res, err := sys.Query(gen(i), ranks)
		if err != nil {
			return 0, comps, err
		}
		total += res.Time.Total()
		comps.Add(res.Time)
	}
	comps.IO /= float64(n)
	comps.Decompress /= float64(n)
	comps.Reconstruct /= float64(n)
	return total / float64(n), comps, nil
}

// vcGen returns a generator of random value-constraint (region)
// queries with the given selectivity.
func vcGen(data []float64, sel float64, seed int64, indexOnly bool) func(i int) *query.Request {
	return func(i int) *query.Request {
		lo, hi := datagen.Selectivity(data, sel, seed+int64(i)*101, 1<<16)
		vc := binning.ValueConstraint{Min: lo, Max: hi}
		return &query.Request{VC: &vc, IndexOnly: indexOnly}
	}
}

// scGen returns a generator of random spatial-constraint (value)
// queries covering approximately the given fraction of the domain.
func scGen(shape grid.Shape, sel float64, seed int64) func(i int) *query.Request {
	return func(i int) *query.Request {
		sc := randomRegion(shape, sel, seed+int64(i)*137)
		return &query.Request{SC: &sc}
	}
}

// randomRegion picks an axis-aligned box covering ~frac of the domain.
func randomRegion(shape grid.Shape, frac float64, seed int64) grid.Region {
	dims := shape.Dims()
	side := pow(frac, 1/float64(dims))
	rng := seed
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(uint64(rng)>>11) / float64(1<<53)
	}
	lo := make([]int, dims)
	hi := make([]int, dims)
	for d := 0; d < dims; d++ {
		w := int(side * float64(shape[d]))
		if w < 1 {
			w = 1
		}
		if w > shape[d] {
			w = shape[d]
		}
		maxStart := shape[d] - w
		start := 0
		if maxStart > 0 {
			start = int(next() * float64(maxStart))
		}
		lo[d] = start
		hi[d] = start + w
	}
	return grid.Region{Lo: lo, Hi: hi}
}

func pow(x, y float64) float64 { return math.Pow(x, y) }

// fmtSec renders seconds with adaptive precision.
func fmtSec(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	default:
		return fmt.Sprintf("%.4f", s)
	}
}

// fmtMB renders bytes as MB with two decimals.
func fmtMB(b int64) string {
	return fmt.Sprintf("%.2f MB", float64(b)/1e6)
}
