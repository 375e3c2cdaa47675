package experiments

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mloc/internal/core"
)

// claim is one gated assertion of the paper's evaluation, named for the
// EXPERIMENTS.md ✓ it backs.
type claim struct {
	name  string
	check func(t *testing.T, tab *TableResult)
}

// claimSet is one experiment's gate: the rows its table must render and
// the claims its cells must satisfy.
type claimSet struct {
	rows   int
	claims []claim
}

// paperClaims is every gated claim of the evaluation, keyed by
// Experiment.Name. The cells are stopwatch-dependent unless noted, so
// each inequality keeps a margin the one-query runs below hold on an
// idle host.
var paperClaims = map[string]claimSet{
	"Table I": {rows: 6, claims: []claim{ // sizes only: deterministic
		{"isa_well_under_raw", func(t *testing.T, tab *TableResult) {
			if isa := cellValue(t, tab, "MLOC-ISA", "Total/raw"); isa > 0.8 {
				t.Errorf("ISA total/raw = %v, want well under 1 (paper: 0.40)", isa)
			}
		}},
		{"lossless_mloc_near_raw", func(t *testing.T, tab *TableResult) {
			for _, row := range []string{"MLOC-COL", "MLOC-ISO"} {
				if v := cellValue(t, tab, row, "Total/raw"); v < 0.5 || v > 1.4 {
					t.Errorf("%s total/raw = %v, want near 1 (paper: 1.01 / 1.06)", row, v)
				}
			}
		}},
		{"seqscan_is_raw", func(t *testing.T, tab *TableResult) {
			if v := cellValue(t, tab, "Seq. Scan", "Total/raw"); v != 1 {
				t.Errorf("seq-scan total/raw = %v, want 1.00", v)
			}
		}},
		{"fastbit_index_dominates", func(t *testing.T, tab *TableResult) {
			if fb := cellValue(t, tab, "FastBit", "Total/raw"); fb < 1.2 {
				t.Errorf("FastBit total/raw = %v, want well above 1 (paper: 2.25)", fb)
			}
		}},
		{"scidb_overlap_overhead", func(t *testing.T, tab *TableResult) {
			if v := cellValue(t, tab, "SciDB*", "Total/raw"); v <= 1 || v > 1.2 {
				t.Errorf("SciDB total/raw = %v, want a few percent above 1 (paper: 1.10)", v)
			}
		}},
	}},
	"Table II": {rows: 6, claims: []claim{
		{"mloc_far_below_comparators", func(t *testing.T, tab *TableResult) {
			for _, ds := range []string{"1% GTS", "1% S3D"} {
				col := cellValue(t, tab, "MLOC-COL", ds)
				for _, other := range []string{"Seq. Scan", "FastBit", "SciDB"} {
					if v := cellValue(t, tab, other, ds); col*3 > v {
						t.Errorf("%s: MLOC-COL %.2fs not clearly faster than %s %.2fs", ds, col, other, v)
					}
				}
			}
		}},
		{"scidb_slowest", func(t *testing.T, tab *TableResult) {
			for _, ds := range tab.Header[1:] {
				sci := cellValue(t, tab, "SciDB", ds)
				for _, row := range tab.Rows {
					if v := cellValue(t, tab, row[0], ds); row[0] != "SciDB" && v*2 > sci {
						t.Errorf("%s: SciDB %.2fs not clearly slower than %s %.2fs", ds, sci, row[0], v)
					}
				}
			}
		}},
	}},
	"Table III": {rows: 6, claims: []claim{
		{"isa_below_seqscan_gts", func(t *testing.T, tab *TableResult) {
			for _, ds := range []string{"0.1% GTS", "1% GTS"} {
				isa := cellValue(t, tab, "MLOC-ISA", ds)
				if seq := cellValue(t, tab, "Seq. Scan", ds); isa*2 > seq {
					t.Errorf("%s: MLOC-ISA %.2fs not clearly below seq-scan %.2fs", ds, isa, seq)
				}
			}
		}},
		{"fastbit_slowest", func(t *testing.T, tab *TableResult) {
			for _, ds := range tab.Header[1:] {
				fb := cellValue(t, tab, "FastBit", ds)
				for _, row := range tab.Rows {
					if v := cellValue(t, tab, row[0], ds); row[0] != "FastBit" && v > fb {
						t.Errorf("%s: %s %.2fs slower than FastBit %.2fs", ds, row[0], v, fb)
					}
				}
			}
		}},
	}},
	"Table IV": {rows: 4, claims: []claim{
		{"mloc_far_below_seqscan", func(t *testing.T, tab *TableResult) {
			for _, ds := range tab.Header[1:] {
				col := cellValue(t, tab, "MLOC-COL", ds)
				if seq := cellValue(t, tab, "Seq. Scan", ds); col*5 > seq {
					t.Errorf("%s: MLOC-COL %.0fs not ≫ faster than seq %.0fs", ds, col, seq)
				}
			}
		}},
		{"seqscan_full_scan", func(t *testing.T, tab *TableResult) {
			// ≈512 GB / 400 MB/s ≈ 1300 s.
			if seq := cellValue(t, tab, "Seq. Scan", "1% GTS"); seq < 800 || seq > 4000 {
				t.Errorf("512 GB seq-scan %.0fs outside full-scan regime", seq)
			}
		}},
	}},
	"Table V": {rows: 4, claims: []claim{
		{"isa_below_seqscan", func(t *testing.T, tab *TableResult) {
			isa := cellValue(t, tab, "MLOC-ISA", "0.1% GTS")
			if seq := cellValue(t, tab, "Seq. Scan", "0.1% GTS"); isa >= seq {
				t.Errorf("0.1%% GTS: MLOC-ISA %.1fs not below seq-scan %.1fs", isa, seq)
			}
		}},
	}},
	"Table VI": {rows: 3, claims: []claim{ // PLoD rounding only: deterministic
		{"error_falls_with_bytes", func(t *testing.T, tab *TableResult) {
			for _, col := range []string{"Hist vu", "Hist vv", "Hist vw", "K-means vv+vw"} {
				e2, e3, e4 := cellValue(t, tab, "2", col), cellValue(t, tab, "3", col), cellValue(t, tab, "4", col)
				if !(e2 > e3 && e3 > e4) {
					t.Errorf("%s error not decreasing: %v %v %v", col, e2, e3, e4)
				}
			}
		}},
		{"three_bytes_below_0.05pct", func(t *testing.T, tab *TableResult) {
			for _, col := range []string{"Hist vu", "Hist vv", "Hist vw", "K-means vv+vw"} {
				if e3 := cellValue(t, tab, "3", col); e3 > 0.05 {
					t.Errorf("3-byte %s error %v%% not below 0.05%% (paper: 0.029%%)", col, e3)
				}
			}
		}},
	}},
	"Table VII": {rows: 2, claims: []claim{
		{"vsm_wins_full_precision", func(t *testing.T, tab *TableResult) {
			vms := cellValue(t, tab, "V-M-S", "Full-precision access")
			if vsm := cellValue(t, tab, "V-S-M", "Full-precision access"); vsm >= vms {
				t.Errorf("V-S-M full-precision access %.2fs not below V-M-S %.2fs", vsm, vms)
			}
		}},
	}},
	"Figure 6": {rows: 4, claims: []claim{
		{"isa_least_io", func(t *testing.T, tab *TableResult) {
			isa, col := cellValue(t, tab, "MLOC-ISA", "I/O"), cellValue(t, tab, "MLOC-COL", "I/O")
			if isa >= col {
				t.Errorf("ISA I/O %.2f not below COL %.2f", isa, col)
			}
		}},
		{"isa_most_decompress", func(t *testing.T, tab *TableResult) {
			isa, col := cellValue(t, tab, "MLOC-ISA", "Decompress"), cellValue(t, tab, "MLOC-COL", "Decompress")
			if isa <= col {
				t.Errorf("ISA decompress %.2f not above COL %.2f", isa, col)
			}
		}},
		{"seqscan_io_only", func(t *testing.T, tab *TableResult) {
			if dec := cellValue(t, tab, "Seq. Scan", "Decompress"); dec > 0.1 {
				t.Errorf("seq-scan decompress %.2f should be ~0", dec)
			}
		}},
	}},
	"Figure 7": {rows: 5, claims: []claim{
		{"decompress_scales_with_ranks", func(t *testing.T, tab *TableResult) {
			// Endpoints only: measured CPU is noisy in between.
			dec8, dec128 := cellValue(t, tab, "8", "Decompress"), cellValue(t, tab, "128", "Decompress")
			if dec128 > dec8 {
				t.Errorf("decompress did not shrink with ranks: %.2f -> %.2f", dec8, dec128)
			}
		}},
		{"io_saturates", func(t *testing.T, tab *TableResult) {
			io8, io128 := cellValue(t, tab, "8", "I/O"), cellValue(t, tab, "128", "I/O")
			if io128 < io8*0.8 {
				t.Errorf("I/O improved with ranks (%.2f -> %.2f); contention model broken", io8, io128)
			}
		}},
	}},
	"Figure 8": {rows: 4, claims: []claim{
		{"io_grows_with_level", func(t *testing.T, tab *TableResult) {
			io2, ioFull := cellValue(t, tab, "level 2", "I/O"), cellValue(t, tab, "full", "I/O")
			if io2 >= ioFull {
				t.Errorf("PLoD-2 I/O %.3fs not below full-precision I/O %.3fs", io2, ioFull)
			}
		}},
	}},
	"Ablation: binning": {rows: 2, claims: []claim{
		{"equal_frequency_balanced", func(t *testing.T, tab *TableResult) { // deterministic
			ef := cellValue(t, tab, "equal-frequency", "Max/mean bin size")
			if ew := cellValue(t, tab, "equal-width", "Max/mean bin size"); ef >= ew {
				t.Errorf("equal-frequency imbalance %v not below equal-width %v", ef, ew)
			}
		}},
	}},
	"Ablation: curve": {rows: 3, claims: []claim{
		{"hilbert_io_not_worse", func(t *testing.T, tab *TableResult) {
			h, r := cellValue(t, tab, "hilbert", "I/O (s)"), cellValue(t, tab, "rowmajor", "I/O (s)")
			if h > r*1.1 {
				t.Errorf("Hilbert I/O %.2f clearly worse than row-major %.2f", h, r)
			}
		}},
	}},
	"Ablation: assignment": {rows: 2, claims: []claim{
		{"column_beats_roundrobin", func(t *testing.T, tab *TableResult) {
			col, rr := cellValue(t, tab, "column", "Query time (s)"), cellValue(t, tab, "roundrobin", "Query time (s)")
			if col >= rr {
				t.Errorf("column order %.2fs not faster than round-robin %.2fs", col, rr)
			}
		}},
	}},
	"Ablation: PLoD fill": {rows: 3, claims: []claim{
		{"centered_beats_zero", func(t *testing.T, tab *TableResult) { // deterministic
			for _, nbytes := range []string{"2", "3", "4"} {
				c, z := cellValue(t, tab, nbytes, "Centered 0x7F/0xFF"), cellValue(t, tab, nbytes, "Zero fill")
				if c >= z {
					t.Errorf("%s bytes: centered fill error %v%% not below zero fill %v%%", nbytes, c, z)
				}
			}
		}},
	}},
	"Ablation: file organization": {rows: 2, claims: []claim{
		{"subfiling_beats_shared_file", func(t *testing.T, tab *TableResult) {
			sub, shared := cellValue(t, tab, "100 bins", "Region query (s)"), cellValue(t, tab, "1 bin", "Region query (s)")
			if sub >= shared {
				t.Errorf("subfiled %.3fs not faster than shared-file %.3fs", sub, shared)
			}
		}},
	}},
	"Extension: multires comparison": {rows: 6, claims: []claim{ // bytes and errors: deterministic
		{"subset_reads_less", func(t *testing.T, tab *TableResult) {
			plod, sub := cellValue(t, tab, "PLoD", "Fraction"), cellValue(t, tab, "Subset", "Fraction")
			if sub >= plod {
				t.Errorf("subset fraction %.3f not below PLoD fraction %.3f", sub, plod)
			}
		}},
		{"plod_error_smaller", func(t *testing.T, tab *TableResult) {
			plod, sub := cellValue(t, tab, "PLoD", "Mean rel. error"), cellValue(t, tab, "Subset", "Mean rel. error")
			if plod >= sub {
				t.Errorf("PLoD error %.2e not below subset error %.2e", plod, sub)
			}
		}},
	}},
}

// TestFixtureBuildsOnce pins the memo: concurrent first uses of a
// fixture store build it once and share it. It uses the claim runs'
// seed, so the store it builds is the one Table I reads next.
func TestFixtureBuildsOnce(t *testing.T) {
	w := gtsWorkload(false, claimParams().Seed)
	stores := make([]*core.Store, 4)
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, _, err := mlocStore(gtsWorkload(false, claimParams().Seed), VariantCOL)
			if err != nil {
				t.Error(err)
			}
			stores[i] = st
		}()
	}
	wg.Wait()
	for i, st := range stores {
		if st == nil || st != stores[0] {
			t.Fatalf("caller %d got store %p, caller 0 got %p", i, st, stores[0])
		}
	}
	if w != gtsWorkload(false, claimParams().Seed) {
		t.Fatal("workload generated twice")
	}
}

// One entry point per experiment: each runs the experiment once at
// claimParams and checks its claim rows as subtests.

func TestTable1Shape(t *testing.T)             { checkClaims(t, "Table I") }
func TestTable2Shape(t *testing.T)             { checkClaims(t, "Table II") }
func TestTable3Shape(t *testing.T)             { checkClaims(t, "Table III") }
func TestTable4Shape(t *testing.T)             { checkClaims(t, "Table IV") }
func TestTable5Shape(t *testing.T)             { checkClaims(t, "Table V") }
func TestTable6Shape(t *testing.T)             { checkClaims(t, "Table VI") }
func TestTable7Shape(t *testing.T)             { checkClaims(t, "Table VII") }
func TestFigure6Shape(t *testing.T)            { checkClaims(t, "Figure 6") }
func TestFigure7Shape(t *testing.T)            { checkClaims(t, "Figure 7") }
func TestFigure8Shape(t *testing.T)            { checkClaims(t, "Figure 8") }
func TestAblationBinningShape(t *testing.T)    { checkClaims(t, "Ablation: binning") }
func TestAblationCurveShape(t *testing.T)      { checkClaims(t, "Ablation: curve") }
func TestAblationAssignmentShape(t *testing.T) { checkClaims(t, "Ablation: assignment") }
func TestAblationPLoDFillShape(t *testing.T)   { checkClaims(t, "Ablation: PLoD fill") }
func TestAblationFileOrgShape(t *testing.T)    { checkClaims(t, "Ablation: file organization") }
func TestExtensionMultiresShape(t *testing.T)  { checkClaims(t, "Extension: multires comparison") }

// claimParams keeps the claim runs quick: one query per cell. Seed 3
// rather than bench_results.txt's seed 1, so the claims are not tuned
// to the committed run.
func claimParams() Params {
	return Params{Queries: 1, Ranks: 4, Seed: 3}
}

// checkClaims runs the named experiment and checks its claim set.
func checkClaims(t *testing.T, name string) {
	set, ok := paperClaims[name]
	if !ok {
		t.Fatalf("no claims for %q", name)
	}
	var e *Experiment
	for i := range Experiments {
		if Experiments[i].Name == name {
			e = &Experiments[i]
		}
	}
	if e == nil {
		t.Fatalf("no experiment %q", name)
	}
	tab, err := e.Run(claimParams())
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tab, set.rows)
	for _, c := range set.claims {
		t.Run(c.name, func(t *testing.T) { c.check(t, tab) })
	}
}

// TestEveryExperimentIsGated pins the claim table to the experiment
// list: a new experiment needs a claim set, and a claim set names a
// listed experiment.
func TestEveryExperimentIsGated(t *testing.T) {
	listed := map[string]bool{}
	for _, e := range Experiments {
		listed[e.Name] = true
		if len(paperClaims[e.Name].claims) == 0 {
			t.Errorf("experiment %q has no claims", e.Name)
		}
	}
	for name := range paperClaims {
		if !listed[name] {
			t.Errorf("claims for unlisted experiment %q", name)
		}
	}
}

// TestTable1MatchesCommitted pins Table I, which reads only sizes on
// disk, to its block in bench_results.txt, so a change to what a store
// weighs regenerates the committed results with it.
func TestTable1MatchesCommitted(t *testing.T) {
	raw, err := os.ReadFile("../../bench_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	committed := string(raw)
	start := strings.Index(committed, "Table I:")
	end := strings.Index(committed, "  (Table I regenerated in")
	if start < 0 || end < start {
		t.Fatal("bench_results.txt has no Table I block")
	}
	tab, err := Table1(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tab.String(), committed[start:end]; got != want {
		t.Errorf("Table I at seed 1 differs from bench_results.txt; regenerate it with go run ./cmd/benchtables\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// renderOK checks a table renders non-trivially.
func renderOK(t *testing.T, tab *TableResult, wantRows int) {
	t.Helper()
	if len(tab.Rows) != wantRows {
		t.Fatalf("%s: %d rows, want %d", tab.Title, len(tab.Rows), wantRows)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("%s: row %d has %d cells, header has %d", tab.Title, i, len(row), len(tab.Header))
		}
	}
	if !strings.Contains(tab.String(), tab.Title) {
		t.Fatalf("render missing title")
	}
}

func cellValue(t *testing.T, tab *TableResult, rowName, col string) float64 {
	t.Helper()
	ci := -1
	for i, h := range tab.Header {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("%s: no column %q", tab.Title, col)
	}
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], rowName) {
			s := strings.Fields(row[ci])[0]
			s = strings.TrimSuffix(s, "%")
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatalf("%s: cell %s/%s = %q not numeric", tab.Title, rowName, col, row[ci])
			}
			return v
		}
	}
	t.Fatalf("%s: no row %q", tab.Title, rowName)
	return 0
}
