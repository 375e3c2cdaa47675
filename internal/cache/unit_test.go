package cache

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// unitOffsets and unitValues are the decoded unit (store, bin, unit) at
// level the tests insert: every slice says which unit and level it
// belongs to, so a probe that returns another unit's entry is caught.
func unitOffsets(bin, unit int) []int32 {
	return []int32{int32(bin), int32(unit), int32(bin + unit)}
}

func unitValues(bin, unit, level int) []float64 {
	return []float64{float64(bin), float64(unit), float64(level)}
}

// checkUnit fails unless u holds exactly unit u.Unit of bin at u.Level.
func checkUnit(t *testing.T, bin int, u Unit) {
	t.Helper()
	want := unitOffsets(bin, u.Unit)
	if len(u.Offsets) != len(want) || u.Offsets[0] != want[0] || u.Offsets[1] != want[1] {
		t.Errorf("bin %d unit %d: offsets %v, want %v", bin, u.Unit, u.Offsets, want)
	}
	if u.Level == 0 {
		if u.Values != nil {
			t.Errorf("bin %d unit %d: level 0 answered values %v", bin, u.Unit, u.Values)
		}
		return
	}
	if len(u.Values) != 3 || u.Values[0] != float64(bin) || u.Values[1] != float64(u.Unit) || u.Values[2] != float64(u.Level) {
		t.Errorf("bin %d unit %d level %d: values %v", bin, u.Unit, u.Level, u.Values)
	}
}

// waitForWaiter blocks until some caller waits on a flight.
func waitForWaiter(t *testing.T, c *Cache) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Waits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never reached the in-flight wait")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProbeKeepFillRoundtrip: a cold bin stage misses everywhere and
// counts one miss per unit; the offsets Keep and Fill insert come back
// whole from the next probe, which counts one hit per unit.
func TestProbeKeepFillRoundtrip(t *testing.T) {
	c := mustNew(t, 1<<20)
	const bin = 4
	units := []Unit{{Unit: 0}, {Unit: 1, Level: 7}, {Unit: 2, Level: 3}}
	if hits := c.Probe("s", bin, units); hits != 0 {
		t.Fatalf("cold probe: %d hits", hits)
	}
	for i := range units {
		if units[i].Offsets != nil || units[i].Hit {
			t.Fatalf("cold probe filled unit %+v", units[i])
		}
		units[i].Offsets = unitOffsets(bin, units[i].Unit)
	}
	if hits := c.Keep("s", bin, units); hits != 0 {
		t.Fatalf("Keep of decoded offsets: %d hits", hits)
	}
	for i := 1; i < len(units); i++ {
		u := &units[i]
		hit, err := c.Fill(context.Background(), "s", bin, u, func() ([]float64, error) {
			return unitValues(bin, u.Unit, u.Level), nil
		})
		if err != nil || hit {
			t.Fatalf("cold Fill = (%v, %v)", hit, err)
		}
	}
	if st := c.Stats(); st.Misses != 3 || st.Hits != 0 || st.Entries != 3 {
		t.Fatalf("after a cold stage: %+v, want 3 misses, 3 entries", st)
	}

	warm := []Unit{{Unit: 0}, {Unit: 1, Level: 7}, {Unit: 2, Level: 3}}
	if hits := c.Probe("s", bin, warm); hits != 3 {
		t.Fatalf("warm probe: %d hits, want 3", hits)
	}
	for _, u := range warm {
		if !u.Hit {
			t.Errorf("warm probe missed unit %d", u.Unit)
		}
		checkUnit(t, bin, u)
	}
	if st := c.Stats(); st.Misses != 3 || st.Hits != 3 {
		t.Errorf("after a warm stage: %+v, want 3 misses, 3 hits", st)
	}
}

// TestProbeLevelsDoNotAlias: a level-0 entry lends its offsets to a
// value probe but never its values or a hit; a level-3 entry never
// answers level 7 and the reverse; another store's or bin's entry never
// answers at all.
func TestProbeLevelsDoNotAlias(t *testing.T) {
	c := mustNew(t, 1<<20)
	offsetsOnly := []Unit{{Unit: 5, Offsets: unitOffsets(1, 5)}}
	c.Keep("s", 1, offsetsOnly)

	value := []Unit{{Unit: 5, Level: 7}}
	if hits := c.Probe("s", 1, value); hits != 0 || value[0].Hit || value[0].Values != nil {
		t.Fatalf("offsets-only entry answered a value read: %+v", value[0])
	}
	if len(value[0].Offsets) != 3 {
		t.Fatalf("value probe did not fall back to the level-0 offsets: %+v", value[0])
	}

	u3 := Unit{Unit: 6, Level: 3, Offsets: unitOffsets(1, 6)}
	if _, err := c.Fill(context.Background(), "s", 1, &u3, func() ([]float64, error) { return unitValues(1, 6, 3), nil }); err != nil {
		t.Fatal(err)
	}
	u7 := Unit{Unit: 7, Level: 7, Offsets: unitOffsets(1, 7)}
	if _, err := c.Fill(context.Background(), "s", 1, &u7, func() ([]float64, error) { return unitValues(1, 7, 7), nil }); err != nil {
		t.Fatal(err)
	}
	for _, u := range []Unit{{Unit: 6, Level: 7}, {Unit: 7, Level: 3}} {
		probe := []Unit{u}
		if c.Probe("s", 1, probe); probe[0].Hit || probe[0].Values != nil {
			t.Errorf("unit %d: a level-%d probe was answered by another level: %+v", u.Unit, u.Level, probe[0])
		}
	}
	for _, other := range []struct {
		store string
		bin   int
	}{{"s2", 1}, {"s", 2}} {
		probe := []Unit{{Unit: 6, Level: 3}, {Unit: 5}}
		if hits := c.Probe(other.store, other.bin, probe); hits != 0 || probe[1].Offsets != nil {
			t.Errorf("%s bin %d answered from s bin 1: %+v", other.store, other.bin, probe)
		}
	}
}

// TestFillWaiterUnderLazyChannel: a second caller that arrives while
// the leader decodes makes the flight's channel, waits on it, and gets
// the leader's values without decoding; the entry then holds the
// leader's offsets and values as one.
func TestFillWaiterUnderLazyChannel(t *testing.T) {
	c := mustNew(t, 1<<20)
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		u := Unit{Unit: 1, Level: 7, Offsets: unitOffsets(0, 1)}
		hit, err := c.Fill(context.Background(), "s", 0, &u, func() ([]float64, error) {
			close(started)
			<-release
			return unitValues(0, 1, 7), nil
		})
		if err != nil || hit {
			t.Errorf("leader: hit=%v err=%v", hit, err)
		}
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		u := Unit{Unit: 1, Level: 7, Offsets: unitOffsets(0, 1)}
		hit, err := c.Fill(context.Background(), "s", 0, &u, func() ([]float64, error) {
			t.Error("waiter decoded; single-flight failed")
			return nil, nil
		})
		if err != nil || !hit {
			t.Errorf("waiter: hit=%v err=%v", hit, err)
		}
		checkUnit(t, 0, u)
	}()
	waitForWaiter(t, c)
	close(release)
	wg.Wait()

	probe := []Unit{{Unit: 1, Level: 7}}
	if c.Probe("s", 0, probe); !probe[0].Hit {
		t.Fatal("the leader's entry is not resident")
	}
	checkUnit(t, 0, probe[0])
	if st := c.Stats(); st.Misses != 1 || st.Waits != 1 || st.Suppressed != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want misses=1 waits=1 suppressed=1 hits=2", st)
	}
}

// TestFillLeaderPanicReleasesWaiter: a waiter on the channel when the
// leader's decode panics gets an error instead of blocking, the panic
// reaches the leader's caller, and the unit can be decoded again.
func TestFillLeaderPanicReleasesWaiter(t *testing.T) {
	c := mustNew(t, 1<<20)
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		u := Unit{Unit: 2, Level: 7, Offsets: unitOffsets(0, 2)}
		_, _ = c.Fill(context.Background(), "s", 0, &u, func() ([]float64, error) {
			close(started)
			<-release
			panic("cache_test: decode panicked")
		})
	}()
	<-started
	errc := make(chan error, 1)
	go func() {
		u := Unit{Unit: 2, Level: 7}
		_, err := c.Fill(context.Background(), "s", 0, &u, func() ([]float64, error) {
			return nil, errors.New("cache_test: waiter decoded")
		})
		errc <- err
	}()
	waitForWaiter(t, c)
	close(release)
	if p := <-panicked; p == nil {
		t.Fatal("the leader's panic did not reach its caller")
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("waiter of a panicked decode got no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter of a panicked decode is still blocked")
	}
	u := Unit{Unit: 2, Level: 7, Offsets: unitOffsets(0, 2)}
	hit, err := c.Fill(context.Background(), "s", 0, &u, func() ([]float64, error) { return unitValues(0, 2, 7), nil })
	if err != nil || hit {
		t.Fatalf("retry after a panicked decode = (%v, %v), want a fresh decode", hit, err)
	}
	checkUnit(t, 0, u)
}

// TestFillWaiterHonorsContext: a waiter whose ctx is canceled returns
// promptly with the context's error; the leader finishes and its entry
// is resident.
func TestFillWaiterHonorsContext(t *testing.T) {
	c := mustNew(t, 1<<20)
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		u := Unit{Unit: 3, Level: 7, Offsets: unitOffsets(0, 3)}
		_, err := c.Fill(context.Background(), "s", 0, &u, func() ([]float64, error) {
			close(started)
			<-release
			return unitValues(0, 3, 7), nil
		})
		leader <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		u := Unit{Unit: 3, Level: 7}
		_, err := c.Fill(ctx, "s", 0, &u, func() ([]float64, error) { return nil, nil })
		errc <- err
	}()
	waitForWaiter(t, c)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter did not return promptly")
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	probe := []Unit{{Unit: 3, Level: 7}}
	if c.Probe("s", 0, probe); !probe[0].Hit {
		t.Fatal("the leader's entry is not resident after its waiter gave up")
	}
	checkUnit(t, 0, probe[0])
}

// TestProbeDuringEvictingInserts: batch probes of whole bin stages run
// while other goroutines insert into a cache small enough that every
// insert evicts. Whatever a probe returns belongs to the unit and level
// it asked for, and the byte bound holds.
func TestProbeDuringEvictingInserts(t *testing.T) {
	c := mustNew(t, numShards*4*(3*12+entryOverhead))
	const bins, unitsPerBin = 6, 8
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				bin := (g + i) % bins
				level := []int{0, 3, 7}[i%3]
				units := make([]Unit, unitsPerBin)
				for u := range units {
					units[u] = Unit{Unit: u, Level: level}
				}
				c.Probe("s", bin, units)
				for u := range units {
					if units[u].Hit {
						checkUnit(t, bin, units[u])
					} else if units[u].Offsets == nil {
						units[u].Offsets = unitOffsets(bin, u)
					}
				}
				if level == 0 {
					c.Keep("s", bin, units)
					continue
				}
				for u := range units {
					if units[u].Hit {
						continue
					}
					uu := &units[u]
					if _, err := c.Fill(ctx, "s", bin, uu, func() ([]float64, error) {
						return unitValues(bin, uu.Unit, uu.Level), nil
					}); err != nil {
						t.Errorf("Fill: %v", err)
						return
					}
					checkUnit(t, bin, *uu)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions: the cache is not small enough to evict throughout")
	}
	if st.Bytes > st.Capacity {
		t.Errorf("resident bytes %d exceed capacity %d", st.Bytes, st.Capacity)
	}
}
