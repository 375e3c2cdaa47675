package obs

import (
	"sync"
	"time"
)

// Query log
//
// An always-on, bounded ring of per-query records: what was asked
// (store mode, variable, selectivity class), what it cost (bins
// pruned/covered, cache hits/misses, bytes decoded, queue wait), and
// how it went (shard count, degraded flag, wall + virtual latency,
// trace id when sampled). The server and the router both keep one,
// populated from query.Result plus their own accounting, and expose
// it at /debug/querylog. Appends take one short mutex hold and copy a
// value — cheap enough to leave on unconditionally.

// DefaultQueryLogCapacity is the ring size used when a QueryLog is
// constructed with a non-positive capacity.
const DefaultQueryLogCapacity = 256

// QueryRecord is one query's entry in the log.
type QueryRecord struct {
	// Seq is the log-unique monotonic sequence number.
	Seq uint64 `json:"seq"`
	// UnixMS is the record time, milliseconds since the Unix epoch.
	UnixMS int64 `json:"unix_ms"`
	// Store is the backing store's layout mode (planes, chunks, ...).
	Store string `json:"store"`
	// Var is the queried variable.
	Var string `json:"var"`
	// Selectivity classifies the result size relative to the domain
	// (empty, point, narrow, medium, broad, unknown).
	Selectivity string `json:"selectivity"`
	// Outcome is ok, degraded, or error.
	Outcome string `json:"outcome"`
	// Matches is the total match count before truncation.
	Matches int `json:"matches"`
	// BinsPruned counts bins the index tree walk skipped.
	BinsPruned int `json:"bins_pruned,omitempty"`
	// BinsCovered counts bins answered from the index alone.
	BinsCovered int `json:"bins_covered,omitempty"`
	// CacheHits counts decoded units served from cache.
	CacheHits int `json:"cache_hits"`
	// CacheMisses counts units that had to be read and decoded.
	CacheMisses int `json:"cache_misses"`
	// BytesDecoded is the compressed bytes read for the query.
	BytesDecoded int64 `json:"bytes_decoded"`
	// QueueWaitMS is time spent waiting for an admission slot.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// Shards is the fan-out width (0 for a single-node query).
	Shards int `json:"shards,omitempty"`
	// Degraded marks a partial (shard-loss) result.
	Degraded bool `json:"degraded,omitempty"`
	// WallMS is the end-to-end wall latency in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// VirtS is the virtual-clock cost in seconds.
	VirtS float64 `json:"virt_s"`
	// TraceID links to /debug/traces?id= when the query was traced.
	TraceID uint64 `json:"trace_id,omitempty"`
}

// QueryFilter selects records from a log snapshot. Zero values match
// everything.
type QueryFilter struct {
	// Store keeps only records with this store mode.
	Store string
	// Var keeps only records for this variable.
	Var string
	// MinWall keeps only records at least this slow (wall time).
	MinWall time.Duration
}

func (f QueryFilter) match(r QueryRecord) bool {
	if f.Store != "" && r.Store != f.Store {
		return false
	}
	if f.Var != "" && r.Var != f.Var {
		return false
	}
	if f.MinWall > 0 && r.WallMS < float64(f.MinWall)/float64(time.Millisecond) {
		return false
	}
	return true
}

// QueryLog is a bounded ring of QueryRecords, safe for concurrent use.
type QueryLog struct {
	mu   sync.Mutex
	ring []QueryRecord
	next int
	n    int
	seq  uint64
}

// NewQueryLog returns a log retaining the last capacity records
// (DefaultQueryLogCapacity when capacity <= 0).
func NewQueryLog(capacity int) *QueryLog {
	if capacity <= 0 {
		capacity = DefaultQueryLogCapacity
	}
	return &QueryLog{ring: make([]QueryRecord, capacity)}
}

// Append records one query, stamping Seq and (when unset) UnixMS.
// Append on a nil log is a no-op so untracked paths never branch.
func (l *QueryLog) Append(rec QueryRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	rec.Seq = l.seq
	if rec.UnixMS == 0 {
		rec.UnixMS = time.Now().UnixMilli()
	}
	l.ring[l.next] = rec
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.mu.Unlock()
}

// Snapshot returns the retained records matching f, newest first.
func (l *QueryLog) Snapshot(f QueryFilter) []QueryRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]QueryRecord, 0, l.n)
	for i := 0; i < l.n; i++ {
		idx := (l.next - 1 - i + 2*len(l.ring)) % len(l.ring)
		if f.match(l.ring[idx]) {
			out = append(out, l.ring[idx])
		}
	}
	return out
}

// Len returns the number of retained records.
func (l *QueryLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// SelectivityClass buckets a match count against the variable's
// domain size into a small fixed vocabulary, so the query log (and
// any metric label derived from it) stays low-cardinality.
func SelectivityClass(matches int, domain int64) string {
	switch {
	case matches == 0:
		return "empty"
	case domain <= 0:
		return "unknown"
	}
	frac := float64(matches) / float64(domain)
	switch {
	case frac <= 1e-4:
		return "point"
	case frac <= 0.01:
		return "narrow"
	case frac <= 0.2:
		return "medium"
	}
	return "broad"
}
