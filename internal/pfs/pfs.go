// Package pfs simulates a Lustre-like parallel file system: files are
// striped round-robin across a configurable set of Object Storage
// Targets (OSTs), and every open/read/write charges virtual time to the
// calling process's Clock according to a seek-latency + per-OST-
// bandwidth cost model with shared-OST contention.
//
// This is the substitution for the paper's Lens/Lustre testbed (see
// DESIGN.md §2): the quantities that drive the paper's results — seek
// counts, bytes moved, stripe parallelism, and contention between
// processes sharing OSTs — are charged explicitly, so layout decisions
// shift costs the same way they do on the real system. File contents
// are held in memory; "I/O time" is virtual and deterministic.
//
// There is no cache: the paper clears the file-system cache between
// rounds so every access hits disk, and the simulator reproduces that
// regime by construction.
package pfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config holds the cost-model parameters.
type Config struct {
	// NumOSTs is the number of object storage targets files stripe over.
	NumOSTs int
	// StripeSize is the striping unit in bytes (Lustre default 1 MiB).
	StripeSize int64
	// SeekLatency is the virtual seconds charged when an OST head must
	// move to a non-contiguous position.
	SeekLatency float64
	// OpenLatency is the virtual seconds charged per file open
	// (metadata server round trip).
	OpenLatency float64
	// ReadBW and WriteBW are per-OST streaming bandwidths in bytes per
	// virtual second.
	ReadBW, WriteBW float64
	// ByteScale makes the simulator scale-aware: every stored byte
	// stands for ByteScale bytes of the full-scale dataset, so transfer
	// time is multiplied by it while seek and open latencies — which do
	// not depend on data volume — stay constant. Zero means 1.
	ByteScale float64
	// CPUScale is the matching multiplier for compute charged through
	// Clock.AdvanceCPU — every modelled query and build CPU second
	// (codec, binning, index and filter work scales linearly with data
	// volume). Zero means 1.
	CPUScale float64
}

// DefaultConfig approximates the paper's Lens/Lustre testbed era:
// 8 OSTs × 50 MB/s ≈ 400 MB/s aggregate reads, 1 MiB stripes, 5 ms
// seeks, 1 ms opens. An 8 GB sequential scan costs ≈20 virtual seconds,
// matching the paper's Table II sequential-scan row.
func DefaultConfig() Config {
	return Config{
		NumOSTs:     8,
		StripeSize:  1 << 20,
		SeekLatency: 0.005,
		OpenLatency: 0.001,
		ReadBW:      50e6,
		WriteBW:     40e6,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumOSTs < 1 {
		return fmt.Errorf("pfs: NumOSTs must be >= 1, got %d", c.NumOSTs)
	}
	if c.StripeSize < 1 {
		return fmt.Errorf("pfs: StripeSize must be >= 1, got %d", c.StripeSize)
	}
	if c.ReadBW <= 0 || c.WriteBW <= 0 {
		return fmt.Errorf("pfs: bandwidths must be positive")
	}
	if c.SeekLatency < 0 || c.OpenLatency < 0 {
		return fmt.Errorf("pfs: latencies must be non-negative")
	}
	if c.ByteScale < 0 || c.CPUScale < 0 {
		return fmt.Errorf("pfs: scales must be non-negative")
	}
	return nil
}

// Clock is a per-process virtual clock. Each simulated MPI rank owns
// one; Sim operations advance it. Clocks are not safe for concurrent
// use — one goroutine per clock.
type Clock struct {
	now      float64
	cpuScale float64
	// contention multiplies transfer time: when more ranks than OSTs
	// read concurrently, each rank sees a proportional share of the
	// bandwidth. Set by Sim.NewClocks; 1 for solo clocks.
	contention float64
	// heads tracks this process's last end position per OST for seek
	// detection. Head state is process-local so virtual time is
	// deterministic regardless of goroutine scheduling; cross-process
	// interference is covered by the contention factor instead.
	heads []headPos
	// work is charge's per-OST scratch, kept here because a clock has one
	// goroutine and a query issues hundreds of reads on it.
	work []ostWork
}

// NewClock returns a standalone clock at virtual time zero with CPU
// scale and contention 1. Use Sim.NewClock / Sim.NewClocks to inherit
// the simulator's configured scales.
func NewClock() *Clock { return &Clock{cpuScale: 1, contention: 1} }

// Now returns the clock's current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// advanceTo moves the clock forward to t (never backward) and returns
// the elapsed delta.
func (c *Clock) advanceTo(t float64) float64 {
	if t <= c.now {
		return 0
	}
	d := t - c.now
	c.now = t
	return d
}

// AdvanceBy adds raw virtual time to the clock, returning the new time.
func (c *Clock) AdvanceBy(d float64) float64 {
	if d > 0 {
		c.now += d
	}
	return c.now
}

// AdvanceCPU charges compute seconds, multiplied by the clock's CPU
// scale (see Config.CPUScale), and returns the scaled delta so callers
// can attribute it to a cost component.
func (c *Clock) AdvanceCPU(d float64) float64 {
	if d <= 0 {
		return 0
	}
	scale := c.cpuScale
	if scale <= 0 { // zero means unset (Config.CPUScale doc)
		scale = 1
	}
	d *= scale
	c.now += d
	return d
}

// MeasureCPU is an ungated stopwatch: it runs fn, charges its
// wall-clock duration via AdvanceCPU, and returns the scaled delta. Its
// result depends on the host, and concurrent callers count each other's
// execution time on a busy one, so queries and builds charge modelled
// CPU (ChargeCPU) instead; only the benchmark's probes (bench/probes.go)
// call it.
func (c *Clock) MeasureCPU(fn func()) float64 {
	t0 := time.Now()
	fn()
	return c.AdvanceCPU(time.Since(t0).Seconds())
}

// Stats aggregates simulator counters since the last Reset.
type Stats struct {
	BytesRead    int64
	BytesWritten int64
	Seeks        int64
	Opens        int64
	Reads        int64
	// OSTBusy is per-OST cumulative busy seconds, an imbalance
	// diagnostic for the file-organization experiments.
	OSTBusy []float64
}

// ostWork is one OST's share of a striped transfer being charged.
type ostWork struct {
	bytes   int64
	seeks   int64
	lastEnd int64
	cost    float64
	touched bool
}

// headPos tracks where an OST's head last finished, for seek detection.
type headPos struct {
	fileID int64
	off    int64
	valid  bool
}

type file struct {
	id       int64
	data     []byte
	startOST int
}

// Sim is the simulated parallel file system. All methods are safe for
// concurrent use by multiple goroutines (ranks), each with its own
// Clock.
type Sim struct {
	cfg Config
	// stripe is the effective striping unit in stored bytes. With
	// ByteScale > 1, each stored byte stands for ByteScale full-scale
	// bytes, so the stored stripe shrinks accordingly — otherwise a
	// scaled-down file would span too few stripes and lose the OST
	// parallelism its full-scale counterpart has.
	stripe int64

	mu     sync.Mutex
	files  map[string]*file
	nextID int64
	stats  Stats
}

// New constructs a simulator; it panics on invalid configuration since
// configs are static in every caller.
func New(cfg Config) *Sim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	stripe := cfg.StripeSize
	if cfg.ByteScale > 1 {
		stripe = int64(float64(cfg.StripeSize) / cfg.ByteScale)
		if stripe < 1 {
			stripe = 1
		}
	}
	return &Sim{
		cfg:    cfg,
		stripe: stripe,
		files:  make(map[string]*file),
	}
}

// Config returns the simulator's cost model parameters.
func (s *Sim) Config() Config { return s.cfg }

// NewClock returns a fresh clock carrying the simulator's CPU scale.
// Query engines and builds create their clocks through this so modelled
// compute projects to the simulated data scale.
func (s *Sim) NewClock() *Clock {
	scale := s.cfg.CPUScale
	if scale <= 0 { // zero means unset (Config.CPUScale doc)
		scale = 1
	}
	return &Clock{cpuScale: scale, contention: 1}
}

// NewClocks returns n per-rank clocks whose transfer times carry a
// bandwidth-sharing contention factor of n: striped files spread every
// rank's reads over all OSTs, so each OST concurrently serves all n
// ranks and each rank sees 1/n of the per-OST bandwidth. The model is
// analytic — virtual time stays deterministic regardless of goroutine
// scheduling — and reproduces the paper's saturation behavior: with
// per-rank work ∝ 1/n, I/O time stays flat as ranks grow (Figure 7),
// while compute genuinely parallelizes.
func (s *Sim) NewClocks(n int) []*Clock {
	out := make([]*Clock, n)
	for i := range out {
		c := s.NewClock()
		c.contention = float64(n)
		out[i] = c
	}
	return out
}

// byteScale returns the effective transfer-time multiplier.
func (s *Sim) byteScale() float64 {
	if s.cfg.ByteScale <= 0 { // zero means unset (Config.ByteScale doc)
		return 1
	}
	return s.cfg.ByteScale
}

// CoalesceGap returns the largest gap (in bytes) worth reading through
// rather than seeking over: the bytes one seek latency buys at per-OST
// streaming bandwidth, adjusted for the byte scale. Readers use this to
// merge nearby extents into single requests (the paper's "one pair of
// seek and read operations should load as many contiguous blocks as
// possible", §III-B2).
func (s *Sim) CoalesceGap() int64 {
	return int64(s.cfg.SeekLatency * s.cfg.ReadBW / s.byteScale())
}

// WriteFile creates or replaces a file with the given contents,
// charging open and striped write time to clk.
func (s *Sim) WriteFile(clk *Clock, path string, data []byte) error {
	return s.write(clk, path, data, true)
}

// AppendFile appends data to a file, creating it if needed; the write
// is charged as a contiguous striped write at the file's tail.
func (s *Sim) AppendFile(clk *Clock, path string, data []byte) error {
	return s.write(clk, path, data, false)
}

// write appends data to path, first emptying it when replace is set. A
// replace charges an open's latency; it and the append that creates the
// file count an open.
func (s *Sim) write(clk *Clock, path string, data []byte, replace bool) error {
	if path == "" {
		return fmt.Errorf("pfs: empty path")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[path]
	if !ok {
		f = &file{id: s.nextID, startOST: s.FileOST(path)}
		s.nextID++
		s.files[path] = f
	}
	start := clk.Now()
	if replace {
		f.data = f.data[:0]
		start += s.cfg.OpenLatency
	}
	if replace || !ok {
		s.stats.Opens++
	}
	off := int64(len(f.data))
	f.data = append(f.data, data...)
	s.stats.BytesWritten += int64(len(data))
	clk.advanceTo(s.charge(clk, f, start, off, int64(len(data)), s.cfg.WriteBW))
	return nil
}

// Open charges the metadata open cost for a path and verifies it
// exists. Read methods do not implicitly charge opens, so callers open
// once per file the way the query engine does.
func (s *Sim) Open(clk *Clock, path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[path]; !ok {
		return fmt.Errorf("pfs: open %s: no such file", path)
	}
	s.stats.Opens++
	clk.AdvanceBy(s.cfg.OpenLatency)
	return nil
}

// ReadAt reads length bytes at offset from the file, charging striped
// read time (with seek detection and OST contention) to clk. The
// returned slice aliases simulator memory and must not be modified.
func (s *Sim) ReadAt(clk *Clock, path string, offset, length int64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[path]
	if !ok {
		return nil, fmt.Errorf("pfs: read %s: no such file", path)
	}
	if offset < 0 || length < 0 || offset+length > int64(len(f.data)) {
		return nil, fmt.Errorf("pfs: read %s: range [%d,%d) outside file of %d bytes",
			path, offset, offset+length, len(f.data))
	}
	s.stats.Reads++
	s.stats.BytesRead += length
	end := s.charge(clk, f, clk.Now(), offset, length, s.cfg.ReadBW)
	clk.advanceTo(end)
	return f.data[offset : offset+length], nil
}

// Peek returns file bytes without charging any virtual time or
// counters. Use it only for data the caller has already paid to read
// (e.g. re-slicing an index that a prior ReadAt loaded into memory);
// using it to bypass the cost model invalidates experiments.
func (s *Sim) Peek(path string, offset, length int64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[path]
	if !ok {
		return nil, fmt.Errorf("pfs: peek %s: no such file", path)
	}
	if offset < 0 || length < 0 || offset+length > int64(len(f.data)) {
		return nil, fmt.Errorf("pfs: peek %s: range [%d,%d) outside file of %d bytes",
			path, offset, offset+length, len(f.data))
	}
	return f.data[offset : offset+length], nil
}

// ReadFile reads an entire file.
func (s *Sim) ReadFile(clk *Clock, path string) ([]byte, error) {
	size, err := s.Size(path)
	if err != nil {
		return nil, fmt.Errorf("pfs: read %s: no such file", path)
	}
	return s.ReadAt(clk, path, 0, size)
}

// charge computes the completion time of a striped transfer starting
// at startT on the given clock, updating the clock's head state and the
// simulator's busy accounting. The per-OST components proceed in
// parallel; completion is the slowest OST's finish time, as transfer
// prices it. Caller holds s.mu.
func (s *Sim) charge(clk *Clock, f *file, startT float64, offset, length int64, bw float64) float64 {
	if length == 0 {
		return startT
	}
	if clk.heads == nil {
		clk.heads = make([]headPos, s.cfg.NumOSTs)
		clk.work = make([]ostWork, s.cfg.NumOSTs)
	}
	cost := s.transfer(clk.work, clk.heads, f.id, f.startOST, offset, length, clk.contention, bw)
	if s.stats.OSTBusy == nil {
		s.stats.OSTBusy = make([]float64, s.cfg.NumOSTs)
	}
	for ost := range clk.work {
		w := &clk.work[ost]
		if !w.touched {
			continue
		}
		s.stats.Seeks += w.seeks
		s.stats.OSTBusy[ost] += w.cost
		clk.heads[ost] = headPos{fileID: f.id, off: w.lastEnd, valid: true}
	}
	return startT + cost
}

// transfer is the simulator's one price of a striped transfer: it splits
// [offset, offset+length) of the file fileID, whose first stripe lives
// on OST first, into per-OST bytes, charges a seek to each OST whose
// head (in heads) is not where the transfer starts on it, fills work
// with each OST's share and cost, and returns the slowest OST's cost.
// It reads heads but does not move them, and touches nothing else, so
// charge and PriceRead price a transfer alike.
//
// Seek detection happens in the OST's *object* address space: on
// Lustre an OST stores its stripes of a file back to back in one
// object, so file stripes k and k+NumOSTs are contiguous on disk even
// though they are far apart in file offsets. A contiguous transfer is
// thus contiguous on every OST it touches, and each OST's share is one
// run from its first stripe in the range to its last: the price takes
// O(NumOSTs) whatever the length.
func (s *Sim) transfer(work []ostWork, heads []headPos, fileID int64, first int, offset, length int64, contention, bw float64) float64 {
	clear(work)
	if contention < 1 {
		contention = 1
	}
	n := int64(s.cfg.NumOSTs)
	stripe := s.stripe
	end := offset + length
	lo, hi := offset/stripe, (end-1)/stripe // first and last stripe touched
	if lo == hi {
		// Within one stripe: one OST, one run.
		ost := (int(lo%n) + first) % s.cfg.NumOSTs
		w := &work[ost]
		objOff := lo/n*stripe + offset - lo*stripe
		w.touched, w.bytes, w.lastEnd = true, length, objOff+length
		if h := heads[ost]; !h.valid || h.fileID != fileID || h.off != objOff {
			w.seeks = 1
		}
		w.cost = float64(w.seeks)*s.cfg.SeekLatency + float64(w.bytes)*s.byteScale()*contention/bw
		return w.cost
	}
	slowest := 0.0
	for k := lo; k <= hi && k < lo+n; k++ {
		// Stripes k, k+n, ..., last are this OST's share of the range.
		last := k + (hi-k)/n*n
		ost := (int(k%n) + first) % s.cfg.NumOSTs
		w := &work[ost]
		w.touched = true
		w.bytes = ((last-k)/n + 1) * stripe
		objOff := k / n * stripe
		w.lastEnd = last/n*stripe + stripe
		if k == lo {
			w.bytes -= offset - k*stripe
			objOff += offset - k*stripe
		}
		if last == hi {
			w.bytes -= (hi+1)*stripe - end
			w.lastEnd -= (hi+1)*stripe - end
		}
		if h := heads[ost]; !h.valid || h.fileID != fileID || h.off != objOff {
			w.seeks = 1
		}
		w.cost = float64(w.seeks)*s.cfg.SeekLatency + float64(w.bytes)*s.byteScale()*contention/bw
		slowest = max(slowest, w.cost)
	}
	return slowest
}

// Size returns a file's length in bytes.
func (s *Sim) Size(path string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[path]
	if !ok {
		return 0, fmt.Errorf("pfs: stat %s: no such file", path)
	}
	return int64(len(f.data)), nil
}

// Delete removes a file; deleting a missing file is an error.
func (s *Sim) Delete(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[path]; !ok {
		return fmt.Errorf("pfs: delete %s: no such file", path)
	}
	delete(s.files, path)
	return nil
}

// List returns all paths with the given prefix, sorted.
func (s *Sim) List(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for p := range s.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Stats returns a copy of the counters.
func (s *Sim) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.OSTBusy = append([]float64(nil), s.stats.OSTBusy...)
	return out
}

// ResetStats zeroes the counters — a fresh experiment round, like the
// paper's cache clear between rounds. Head state lives in the clocks,
// which callers recreate per round.
func (s *Sim) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}

// hashPath is FNV-1a, used to spread files' starting OSTs.
func hashPath(p string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}
