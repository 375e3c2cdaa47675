// Package cache implements the shared decoded-unit cache of the query
// service: a sharded, byte-bounded LRU keyed by (store, bin, unit, PLoD
// level) with single-flight deduplication, so concurrent queries that
// touch the same storage unit decode it once and later queries skip its
// reads and its decode.
//
// An entry is a whole decoded unit: its intra-chunk offsets, decoded
// from the bin's positional index, and its values reconstructed at the
// entry's PLoD level. Level 0 holds offsets only: a unit an access
// answered from the index alone. Every unit of one (store, bin) sits in
// one shard, so a bin stage probes all its units in one call under one
// shard lock (Probe); a unit whose offsets are resident needs no index
// read, and one whose values are resident needs no data read either.
// Keep settles the units that need no values, and Fill decodes the
// values of the rest through single-flight, inserting offsets and
// values as one entry.
//
// Get, Put and GetOrCompute deal in values alone; the entries they make
// carry no offsets. Get counts a hit but never a miss: misses are
// recorded where a unit is decoded, by GetOrCompute, Keep and Fill.
// Entries are immutable after insertion: callers must
// treat returned slices as read-only (the query engine only reads
// them). All methods are safe for concurrent use.
package cache

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mloc/internal/obs"
)

// Key identifies one decoded storage unit: the owning store (its PFS
// prefix doubles as the variable identity), the bin and unit position
// within the store's catalog, and the PLoD level the values were
// reconstructed at (different levels yield different values and must
// not alias).
type Key struct {
	// Store is the owning store's identity (PFS path prefix).
	Store string
	// Bin is the bin index within the store.
	Bin int
	// Unit is the unit position within the bin.
	Unit int
	// Level is the PLoD reconstruction level (plod.MaxLevel for full
	// precision and for floats-mode stores). Level 0 is the unit's
	// offsets-only entry: no value read is ever answered from it.
	Level int
}

// Unit is one storage unit of a bin stage as Probe, Keep and Fill see
// it: what the caller asks for (Unit, Level) and what the cache or the
// caller's decode supplied (Offsets, Values).
type Unit struct {
	// Unit is the unit position within the bin; Level the PLoD level
	// its values are wanted at, 0 when only its offsets are.
	Unit, Level int
	// Offsets are the unit's intra-chunk offsets, Values its values at
	// Level (nil at level 0).
	Offsets []int32
	Values  []float64
	// Hit reports that Probe served the unit whole: its offsets and, at
	// a level above 0, its values.
	Hit bool
	// resident reports that Offsets belong to a resident entry (a hit,
	// or the level-0 entry a value probe fell back to), so an insert
	// shares them instead of copying.
	resident bool
}

// Stats is a point-in-time snapshot of the cache counters. Each
// shard's contribution is read in a single lock acquisition together
// with its residency numbers, so the snapshot is mutually consistent
// per shard (no torn reads between a shard's counters and its
// entries/bytes).
//
// Every unit a bin stage touches counts exactly once, as a hit when it
// was served from the cache (it needed no decode: Probe found it
// whole, Keep found its offsets resident, or Fill found its values
// resident or took them from another caller's decode) and as a miss
// otherwise (its offsets or its values were decoded).
type Stats struct {
	// Hits counts units served from the cache (including single-flight
	// waiters that reused another query's decode).
	Hits int64
	// Misses counts units that had to be decoded.
	Misses int64
	// Evictions counts entries pushed out by the byte bound.
	Evictions int64
	// Waits counts single-flight waiters that blocked on another
	// caller's in-progress compute instead of decoding themselves.
	Waits int64
	// Suppressed counts duplicate computes avoided by single-flight:
	// waiters that went on to reuse the leader's successful result.
	Suppressed int64
	// Entries is the current resident entry count.
	Entries int
	// Bytes is the current resident cost in bytes.
	Bytes int64
	// Capacity is the configured byte bound.
	Capacity int64
}

// numShards is the fixed shard count; 16 keeps lock contention low for
// any plausible rank/query parallelism without oversizing the struct.
const numShards = 16

// entryOverhead approximates the per-entry bookkeeping cost in bytes
// (map slot, entry header) charged on top of the offsets and values.
const entryOverhead = 64

// Cache is a sharded LRU over decoded units. Create with New.
type Cache struct {
	shards   [numShards]shard
	capacity int64

	// stores interns each store identity (string → uint32) so the
	// per-unit map key holds no string. It is read before any shard
	// lock is taken and never under one.
	stores    sync.Map
	numStores atomic.Uint32

	// lookupHist, when set by Instrument, observes the wall latency of
	// every Probe/Get/Fill/GetOrCompute call. Atomic because Instrument
	// may run after the cache is already serving lookups.
	lookupHist atomic.Pointer[obs.Histogram]
}

// shard counters live next to the data they describe, under the same
// mutex: mutating them costs nothing extra on paths that already hold
// the lock, and Stats can read a shard's counters and residency in one
// consistent acquisition.
type shard struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	// lru is the sentinel of the circular list of resident entries:
	// lru.next is the most recently used, lru.prev the eviction victim.
	lru entry
	// entries holds the resident entries and those being decoded.
	entries  map[ukey]*entry
	resident int

	hits       int64
	misses     int64
	evictions  int64
	waits      int64
	suppressed int64
}

// ukey is Key with the store interned.
type ukey struct {
	store            uint32
	bin, unit, level int32
}

// entry is one decoded unit. It is its own flight record: it enters
// the shard's map when its decode starts, and the LRU links once the
// decode succeeds and the entry is admitted.
type entry struct {
	key ukey
	// prev and next are the LRU links, nil until the entry is resident.
	prev, next *entry
	offsets    []int32
	values     []float64
	// done is made by the first caller that waits on the decode (nil
	// while none does) and closed when it ends; err is its error.
	done chan struct{}
	err  error
}

// cost is what the entry counts against its shard's byte bound.
func (e *entry) cost() int64 {
	return int64(len(e.values))*8 + int64(len(e.offsets))*4 + entryOverhead
}

// New returns a cache bounded to roughly maxBytes of decoded units
// (the bound is split evenly across shards).
func New(maxBytes int64) (*Cache, error) {
	if maxBytes < 1 {
		return nil, fmt.Errorf("cache: capacity %d must be positive", maxBytes)
	}
	c := &Cache{capacity: maxBytes}
	per := maxBytes / numShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.max = per
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		sh.entries = make(map[ukey]*entry)
	}
	return c, nil
}

// Instrument registers the cache's metrics on reg: hit/miss/evict/
// wait/suppressed counters, bytes-in-use and entry gauges, the
// configured capacity, and a lookup-latency histogram observed on
// every probe. Call once per cache per registry.
func (c *Cache) Instrument(reg *obs.Registry) {
	reg.CounterFunc("mloc_cache_hits_total",
		"Units served from the cache: resident, or a shared single-flight result.",
		func() float64 { return float64(c.Stats().Hits) })
	reg.CounterFunc("mloc_cache_misses_total",
		"Units whose offsets or values were decoded.",
		func() float64 { return float64(c.Stats().Misses) })
	reg.CounterFunc("mloc_cache_evictions_total",
		"Entries evicted by the byte bound.",
		func() float64 { return float64(c.Stats().Evictions) })
	reg.CounterFunc("mloc_cache_waits_total",
		"Single-flight waiters that blocked on another caller's compute.",
		func() float64 { return float64(c.Stats().Waits) })
	reg.CounterFunc("mloc_cache_suppressed_total",
		"Duplicate decodes suppressed by single-flight (waiters that reused the leader's result).",
		func() float64 { return float64(c.Stats().Suppressed) })
	reg.GaugeFunc("mloc_cache_bytes",
		"Resident decoded bytes (including per-entry overhead).",
		func() float64 { return float64(c.Bytes()) })
	reg.GaugeFunc("mloc_cache_entries",
		"Resident entry count.",
		func() float64 { return float64(c.Len()) })
	reg.GaugeFunc("mloc_cache_capacity_bytes",
		"Configured cache capacity in bytes.",
		func() float64 { return float64(c.capacity) })
	c.lookupHist.Store(reg.Histogram("mloc_cache_lookup_seconds",
		"Wall latency of cache lookups (Probe, Get, Fill and GetOrCompute, including any compute).",
		obs.DefSecondsBuckets()))
}

// observeLookup records a lookup's wall latency when instrumented.
func (c *Cache) observeLookup(start time.Time) {
	if h := c.lookupHist.Load(); h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// intern returns the store's small-integer identity, assigning one on
// first sight. It takes no shard lock.
func (c *Cache) intern(store string) uint32 {
	if id, ok := c.stores.Load(store); ok {
		return id.(uint32)
	}
	id, _ := c.stores.LoadOrStore(store, c.numStores.Add(1))
	return id.(uint32)
}

// shardFor returns the shard every unit of one (store, bin) lives in.
func (c *Cache) shardFor(store uint32, bin int32) *shard {
	h := (uint64(store)<<32 | uint64(uint32(bin))) * 0x9E3779B97F4A7C15
	return &c.shards[h>>60]
}

// ukey interns key's store.
func (c *Cache) ukey(key Key) ukey {
	return ukey{store: c.intern(key.Store), bin: int32(key.Bin), unit: int32(key.Unit), level: int32(key.Level)}
}

// residentAt returns the resident entry under k, or nil.
func (sh *shard) residentAt(k ukey) *entry {
	if e := sh.entries[k]; e != nil && e.next != nil {
		return e
	}
	return nil
}

func (sh *shard) unlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (sh *shard) pushFront(e *entry) {
	e.prev, e.next = &sh.lru, sh.lru.next
	e.prev.next, e.next.prev = e, e
}

// touch marks a resident entry most recently used.
func (sh *shard) touch(e *entry) {
	sh.unlink(e)
	sh.pushFront(e)
}

// admit makes e the resident entry under its key, replacing any other,
// and evicts from the LRU tail until the shard fits its bound. An entry
// larger than the whole shard is not admitted (it would evict
// everything for one use); if it held the key's map slot while being
// decoded, the slot is freed. Caller holds sh.mu.
func (sh *shard) admit(e *entry) bool {
	cost := e.cost()
	old := sh.entries[e.key]
	if cost > sh.max {
		if old == e {
			delete(sh.entries, e.key)
		}
		return false
	}
	if old != nil && old != e && old.next != nil {
		sh.unlink(old)
		sh.bytes -= old.cost()
		sh.resident--
	}
	sh.entries[e.key] = e
	sh.pushFront(e)
	sh.bytes += cost
	sh.resident++
	for sh.bytes > sh.max {
		tail := sh.lru.prev
		if tail == &sh.lru {
			break
		}
		sh.unlink(tail)
		delete(sh.entries, tail.key)
		sh.bytes -= tail.cost()
		sh.resident--
		sh.evictions++
	}
	return true
}

// Probe looks up every unit of one bin stage of store under one shard
// lock, filling each unit's Offsets and, at a level above 0, Values.
// A unit found whole at its Level is marked Hit and counts a hit. A
// unit asked at a level above 0 that misses there gets the offsets of
// its level-0 entry when one is resident (it then needs its values
// only); it is not counted here but by the Keep or Fill that settles
// it. A level-0 unit that misses is counted by Keep. Probe returns the
// hits.
func (c *Cache) Probe(store string, bin int, units []Unit) (hits int) {
	start := time.Now()
	defer c.observeLookup(start)
	id := c.intern(store)
	sh := c.shardFor(id, int32(bin))
	sh.mu.Lock()
	for i := range units {
		u := &units[i]
		*u = Unit{Unit: u.Unit, Level: u.Level}
		k := ukey{store: id, bin: int32(bin), unit: int32(u.Unit), level: int32(u.Level)}
		if e := sh.residentAt(k); e != nil && e.offsets != nil && (u.Level == 0 || e.values != nil) {
			sh.touch(e)
			u.Offsets, u.resident, u.Hit = e.offsets, true, true
			if u.Level > 0 {
				u.Values = e.values
			}
			hits++
			continue
		}
		if u.Level > 0 {
			k.level = 0
			if e := sh.residentAt(k); e != nil && e.offsets != nil {
				sh.touch(e)
				u.Offsets, u.resident = e.offsets, true
			}
		}
	}
	sh.hits += int64(hits)
	sh.mu.Unlock()
	return hits
}

// Keep settles the units of a bin stage that need no values: every
// unit at level 0 that Probe did not serve (a caller lowers a unit to
// level 0 once it knows it needs no values). A unit whose offsets came
// from a resident entry counts a hit. One whose offsets the caller has
// just decoded counts a miss and is inserted as an offsets-only entry
// holding a copy of them. Keep returns the hits.
func (c *Cache) Keep(store string, bin int, units []Unit) (hits int) {
	id := c.intern(store)
	sh := c.shardFor(id, int32(bin))
	sh.mu.Lock()
	for i := range units {
		u := &units[i]
		if u.Hit || u.Level != 0 {
			continue
		}
		if u.resident {
			hits++
			continue
		}
		sh.misses++
		k := ukey{store: id, bin: int32(bin), unit: int32(u.Unit)}
		if sh.entries[k] == nil {
			sh.admit(&entry{key: k, offsets: slices.Clone(u.Offsets)})
		}
	}
	sh.hits += int64(hits)
	sh.mu.Unlock()
	return hits
}

// Fill resolves u's values at u.Level (above 0) in store's bin: from a
// resident entry, from another caller's decode of the same unit (it
// waits for that, or until ctx is done), or by running decode and
// inserting u's offsets and the values as one entry. hit reports that
// decode did not run here.
func (c *Cache) Fill(ctx context.Context, store string, bin int, u *Unit, decode func() ([]float64, error)) (hit bool, err error) {
	start := time.Now()
	defer c.observeLookup(start)
	k := ukey{store: c.intern(store), bin: int32(bin), unit: int32(u.Unit), level: int32(u.Level)}
	u.Values, hit, err = c.flight(ctx, store, k, u.Offsets, u.resident, decode)
	return hit, err
}

// flight is the single-flight path under Fill and GetOrCompute: a
// resident entry answers at once; an entry being decoded is waited on
// (its done channel made by the first waiter); otherwise a new entry
// takes the key, compute runs outside the lock, and the entry is
// admitted with offsets (shared when they already belong to the cache,
// copied otherwise) and the values.
func (c *Cache) flight(ctx context.Context, store string, k ukey, offsets []int32, shared bool, compute func() ([]float64, error)) ([]float64, bool, error) {
	sh := c.shardFor(k.store, k.bin)
	sh.mu.Lock()
	if e := sh.entries[k]; e != nil {
		if e.next != nil {
			sh.touch(e)
			sh.hits++
			vals := e.values
			sh.mu.Unlock()
			return vals, true, nil
		}
		if e.done == nil {
			e.done = make(chan struct{})
		}
		done := e.done
		sh.waits++
		sh.mu.Unlock()
		select {
		case <-done:
			if e.err != nil {
				return nil, false, e.err
			}
			sh.mu.Lock()
			sh.hits++
			sh.suppressed++
			sh.mu.Unlock()
			return e.values, true, nil
		case <-ctx.Done():
			return nil, false, fmt.Errorf("cache: waiting for %v/%d/%d@%d: %w",
				store, k.bin, k.unit, k.level, ctx.Err())
		}
	}
	e := &entry{key: k}
	sh.entries[k] = e
	sh.misses++
	sh.mu.Unlock()

	// The flight must resolve even if compute panics, or waiters would
	// block forever; the panic goes on up after the cleanup.
	completed := false
	defer func() {
		if !completed {
			sh.finish(e, fmt.Errorf("cache: compute for %v/%d/%d@%d panicked",
				store, k.bin, k.unit, k.level))
		}
	}()
	vals, err := compute()
	completed = true
	if err != nil {
		sh.finish(e, err)
		return nil, false, err
	}
	sh.mu.Lock()
	e.values = vals
	if sh.entries[k] == e {
		if !shared {
			offsets = slices.Clone(offsets)
		}
		e.offsets = offsets
		sh.admit(e)
	}
	done := e.done
	sh.mu.Unlock()
	if done != nil {
		close(done)
	}
	return vals, false, nil
}

// finish ends a failed flight: the key is freed for a retry and any
// waiters are released with err.
func (sh *shard) finish(e *entry, err error) {
	sh.mu.Lock()
	if sh.entries[e.key] == e {
		delete(sh.entries, e.key)
	}
	e.err = err
	done := e.done
	sh.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// Get returns the cached values for key, or ok=false on a miss. A miss
// from Get is not counted against the Misses statistic (probes that
// precede a batched read would double-count otherwise); the paths that
// decode the unit — GetOrCompute, Keep and Fill — record misses.
func (c *Cache) Get(key Key) (vals []float64, ok bool) {
	start := time.Now()
	defer c.observeLookup(start)
	k := c.ukey(key)
	sh := c.shardFor(k.store, k.bin)
	sh.mu.Lock()
	e := sh.residentAt(k)
	if e != nil {
		sh.touch(e)
		vals = e.values
		sh.hits++
	}
	sh.mu.Unlock()
	return vals, e != nil
}

// GetOrCompute returns the cached values for key, computing and
// inserting them on a miss. Concurrent callers for the same key are
// deduplicated: one runs compute, the rest wait for its result (or
// abandon the wait when ctx is done — the leader's compute is not
// interrupted). hit reports whether the caller avoided running compute
// itself, i.e. the values came from the cache or from another caller's
// flight.
func (c *Cache) GetOrCompute(ctx context.Context, key Key, compute func() ([]float64, error)) (vals []float64, hit bool, err error) {
	start := time.Now()
	defer c.observeLookup(start)
	return c.flight(ctx, key.Store, c.ukey(key), nil, false, compute)
}

// Put inserts values for key, replacing any resident entry.
func (c *Cache) Put(key Key, vals []float64) {
	k := c.ukey(key)
	sh := c.shardFor(k.store, k.bin)
	sh.mu.Lock()
	sh.admit(&entry{key: k, values: vals})
	sh.mu.Unlock()
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.resident
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the resident cost in bytes.
func (c *Cache) Bytes() int64 {
	var b int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		b += sh.bytes
		sh.mu.Unlock()
	}
	return b
}

// Stats returns a snapshot of the counters: one lock acquisition per
// shard reads that shard's counters and residency together.
func (c *Cache) Stats() Stats {
	s := Stats{Capacity: c.capacity}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Evictions += sh.evictions
		s.Waits += sh.waits
		s.Suppressed += sh.suppressed
		s.Entries += sh.resident
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}
