package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunBasic(t *testing.T) {
	var count atomic.Int64
	err := Run(8, func(c *Comm) error {
		if c.Size() != 8 {
			return fmt.Errorf("Size = %d", c.Size())
		}
		if c.Rank() < 0 || c.Rank() >= 8 {
			return fmt.Errorf("Rank = %d", c.Rank())
		}
		count.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 8 {
		t.Fatalf("ran %d ranks", count.Load())
	}
}

func TestRunSizeValidation(t *testing.T) {
	if err := Run(0, func(*Comm) error { return nil }); err == nil {
		t.Fatal("size 0 accepted")
	}
}

func TestRunErrorPropagation(t *testing.T) {
	sentinel := errors.New("rank 3 failed")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	// Phase counter: all ranks must finish phase 1 before any sees
	// phase 2 observations.
	var phase1 atomic.Int64
	err := Run(6, func(c *Comm) error {
		phase1.Add(1)
		if err := c.Barrier(); err != nil {
			return err
		}
		if got := phase1.Load(); got != 6 {
			return fmt.Errorf("rank %d saw phase1=%d after barrier", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReusable(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		for i := 0; i < 100; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicConvertsToError(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		// Other ranks block in a collective; the abort must release
		// them instead of deadlocking.
		return c.Barrier()
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("peers did not observe abort: %v", err)
	}
}

func TestSingleRankCollectives(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		for i := 0; i < 3; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBarrier8(b *testing.B) {
	b.ReportAllocs()
	err := Run(8, func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestRunContention8Ranks hammers the barrier from 8 concurrent ranks
// with deliberately skewed arrival times, each rank writing its own
// slot of a shared slice between barriers and reading every slot after
// one — the pattern the engines gather by. It is the regression net for
// the shared errs slice inside Run and the barrier's ordering: run
// under the race detector (`make race`, or
// `go test -race ./internal/mpi`) it fails on any unsynchronized access
// the scheduler can surface.
func TestRunContention8Ranks(t *testing.T) {
	const (
		ranks  = 8
		rounds = 200
	)
	slots := make([]int, ranks)
	err := Run(ranks, func(c *Comm) error {
		for round := 0; round < rounds; round++ {
			// Jitter arrival order so ranks hit the barrier from
			// different scheduling states each round.
			for i := 0; i < (c.Rank()*7+round)%13; i++ {
				runtime.Gosched()
			}
			slots[c.Rank()] = c.Rank()*rounds + round
			if err := c.Barrier(); err != nil {
				return err
			}
			for r, v := range slots {
				if want := r*rounds + round; v != want {
					return fmt.Errorf("round %d: slot %d = %d, want %d", round, r, v, want)
				}
			}
			// Nobody writes the next round's slot until everyone has
			// read this round.
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
