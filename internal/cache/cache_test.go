package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustNew(t *testing.T, maxBytes int64) *Cache {
	t.Helper()
	c, err := New(maxBytes)
	if err != nil {
		t.Fatalf("New(%d): %v", maxBytes, err)
	}
	return c
}

func TestNewRejectsNonPositiveCapacity(t *testing.T) {
	for _, n := range []int64{0, -1} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) = nil error, want error", n)
		}
	}
}

func TestGetPutRoundtrip(t *testing.T) {
	c := mustNew(t, 1<<20)
	k := Key{Store: "s", Bin: 1, Unit: 2, Level: 7}
	if _, ok := c.Get(k); ok {
		t.Fatalf("Get on empty cache reported a hit")
	}
	want := []float64{1, 2, 3}
	c.Put(k, want)
	got, ok := c.Get(k)
	if !ok {
		t.Fatalf("Get after Put missed")
	}
	if len(got) != len(want) || got[0] != want[0] || got[2] != want[2] {
		t.Fatalf("Get = %v, want %v", got, want)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 entry / 1 hit", st)
	}
}

func TestKeysDoNotAlias(t *testing.T) {
	c := mustNew(t, 1<<20)
	a := Key{Store: "s", Bin: 1, Unit: 2, Level: 7}
	variants := []Key{
		{Store: "s2", Bin: 1, Unit: 2, Level: 7},
		{Store: "s", Bin: 2, Unit: 2, Level: 7},
		{Store: "s", Bin: 1, Unit: 3, Level: 7},
		{Store: "s", Bin: 1, Unit: 2, Level: 3},
	}
	c.Put(a, []float64{42})
	for _, k := range variants {
		if _, ok := c.Get(k); ok {
			t.Errorf("Get(%+v) hit entry stored under %+v", k, a)
		}
	}
}

func TestGetOrComputeCachesAndDedupes(t *testing.T) {
	c := mustNew(t, 1<<20)
	k := Key{Store: "s", Bin: 0, Unit: 0, Level: 7}
	var computes atomic.Int64
	compute := func() ([]float64, error) {
		computes.Add(1)
		return []float64{9}, nil
	}
	vals, hit, err := c.GetOrCompute(context.Background(), k, compute)
	if err != nil || hit || len(vals) != 1 {
		t.Fatalf("first GetOrCompute = (%v, %v, %v), want miss with 1 value", vals, hit, err)
	}
	vals, hit, err = c.GetOrCompute(context.Background(), k, compute)
	if err != nil || !hit || len(vals) != 1 {
		t.Fatalf("second GetOrCompute = (%v, %v, %v), want hit", vals, hit, err)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
}

func TestGetOrComputeSingleFlight(t *testing.T) {
	c := mustNew(t, 1<<20)
	k := Key{Store: "s", Bin: 3, Unit: 1, Level: 7}
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	const waiters = 8

	var wg sync.WaitGroup
	results := make([]bool, waiters+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, hit, err := c.GetOrCompute(context.Background(), k, func() ([]float64, error) {
			computes.Add(1)
			close(started)
			<-release
			return []float64{1}, nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		results[0] = hit
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals, hit, err := c.GetOrCompute(context.Background(), k, func() ([]float64, error) {
				computes.Add(1)
				return []float64{2}, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			if len(vals) != 1 || vals[0] != 1 {
				t.Errorf("waiter %d got %v, want the leader's value [1]", i, vals)
			}
			results[i+1] = hit
		}(i)
	}
	// Give the waiters a moment to reach the in-flight wait, then
	// release the leader. Timing only affects whether waiters dedup or
	// recompute; the compute-count assertion below is the real check.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times under concurrency, want 1", n)
	}
	if results[0] {
		t.Errorf("leader reported hit=true, want false")
	}
	for i, hit := range results[1:] {
		if !hit {
			t.Errorf("waiter %d reported hit=false, want true", i)
		}
	}
}

func TestGetOrComputeWaiterHonorsContext(t *testing.T) {
	c := mustNew(t, 1<<20)
	k := Key{Store: "s", Bin: 5, Unit: 5, Level: 7}
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)

	go func() {
		_, _, err := c.GetOrCompute(context.Background(), k, func() ([]float64, error) {
			close(started)
			<-release
			return []float64{1}, nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(ctx, k, func() ([]float64, error) { return nil, nil })
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("canceled waiter did not return promptly")
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	c := mustNew(t, 1<<20)
	k := Key{Store: "s", Bin: 1, Unit: 1, Level: 7}
	boom := errors.New("cache_test: boom")
	if _, _, err := c.GetOrCompute(context.Background(), k, func() ([]float64, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("error compute returned %v, want boom", err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatalf("failed compute left a resident entry")
	}
	// The key must be retryable after a failed flight.
	vals, hit, err := c.GetOrCompute(context.Background(), k, func() ([]float64, error) {
		return []float64{4}, nil
	})
	if err != nil || hit || len(vals) != 1 {
		t.Fatalf("retry after failure = (%v, %v, %v), want fresh compute", vals, hit, err)
	}
}

func TestEvictionRespectsByteBoundAndLRUOrder(t *testing.T) {
	// Capacity sized so each shard holds only a few entries; keys are
	// crafted to land in one shard by reusing identical field hashes is
	// fragile, so instead fill far past capacity and check the global
	// bound holds and the most recently used keys survive.
	c := mustNew(t, numShards*(3*(8*8+entryOverhead)))
	vals := make([]float64, 8)
	var keys []Key
	for i := 0; i < 20*numShards; i++ {
		k := Key{Store: "s", Bin: i, Unit: 0, Level: 7}
		keys = append(keys, k)
		c.Put(k, vals)
	}
	if b, max := c.Bytes(), c.Stats().Capacity; b > max {
		t.Fatalf("resident bytes %d exceed capacity %d", b, max)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after overfilling: %+v", st)
	}
	// The last insert in each shard must still be resident (it was MRU
	// when its shard last evicted).
	last := keys[len(keys)-1]
	if _, ok := c.Get(last); !ok {
		t.Errorf("most recently inserted key %+v was evicted", last)
	}
}

func TestOversizeEntryNotAdmitted(t *testing.T) {
	c := mustNew(t, numShards*256)
	small := Key{Store: "s", Bin: 0, Unit: 0, Level: 7}
	c.Put(small, make([]float64, 2))
	big := Key{Store: "s", Bin: 1, Unit: 0, Level: 7}
	c.Put(big, make([]float64, 4096)) // 32 KiB > 256-byte shard bound
	if _, ok := c.Get(big); ok {
		t.Errorf("oversize entry was admitted")
	}
	if _, ok := c.Get(small); !ok {
		t.Errorf("oversize insert evicted an unrelated small entry")
	}
}

func TestConcurrentMixedOperations(t *testing.T) {
	c := mustNew(t, 1<<16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := Key{Store: "s", Bin: i % 37, Unit: g % 3, Level: 7}
				switch i % 3 {
				case 0:
					c.Put(k, []float64{float64(i)})
				case 1:
					c.Get(k)
				default:
					_, _, err := c.GetOrCompute(context.Background(), k, func() ([]float64, error) {
						return []float64{float64(i)}, nil
					})
					if err != nil {
						t.Errorf("GetOrCompute: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if b := c.Bytes(); b > c.Stats().Capacity {
		t.Errorf("resident bytes %d exceed capacity after stress", b)
	}
}

func TestStatsSnapshot(t *testing.T) {
	c := mustNew(t, 1<<20)
	k := Key{Store: "s", Bin: 0, Unit: 0, Level: 7}
	if _, _, err := c.GetOrCompute(context.Background(), k, func() ([]float64, error) {
		return []float64{1, 2}, nil
	}); err != nil {
		t.Fatalf("GetOrCompute: %v", err)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatalf("expected hit")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 || st.Bytes == 0 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 entry, nonzero bytes", st)
	}
	if st.Capacity != 1<<20 {
		t.Errorf("capacity = %d, want %d", st.Capacity, 1<<20)
	}
}

func ExampleCache_GetOrCompute() {
	c, _ := New(1 << 20)
	k := Key{Store: "pfs/var", Bin: 3, Unit: 0, Level: 7}
	vals, hit, _ := c.GetOrCompute(context.Background(), k, func() ([]float64, error) {
		return []float64{1.5, 2.5}, nil
	})
	fmt.Println(len(vals), hit)
	vals, hit, _ = c.GetOrCompute(context.Background(), k, nil)
	fmt.Println(len(vals), hit)
	// Output:
	// 2 false
	// 2 true
}
