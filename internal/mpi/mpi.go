// Package mpi provides a goroutine-based SPMD runtime standing in for
// MPI in MLOC's parallel query engine (paper §III-D). Each "rank" is a
// goroutine executing the same body, and Barrier is the one collective.
// The engines gather results without a collective: each rank writes its
// own slot of a slice the caller owns, and Run returning is the gather.
//
// The runtime preserves the paper's decomposition and synchronization
// structure exactly; only the transport differs (shared memory instead
// of a network), which is irrelevant to the layout experiments because
// communication volume is tracked separately from the PFS cost model.
package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// Comm is one rank's handle onto the communicator, analogous to an MPI
// communicator plus the caller's rank. A Comm is only valid inside the
// body passed to Run and must not be shared across goroutines.
type Comm struct {
	rank  int
	world *world
}

type world struct {
	size int
	bar  *cyclicBarrier
}

// Run executes body on size concurrent ranks and waits for all of them.
// Errors from ranks are joined; a panic in any rank propagates after
// the others are released (panics are converted to errors to avoid
// deadlocking collectives).
func Run(size int, body func(c *Comm) error) error {
	if size < 1 {
		return fmt.Errorf("mpi: size must be >= 1, got %d", size)
	}
	w := &world{
		size: size,
		bar:  newCyclicBarrier(size),
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
					// Release peers blocked on the barrier so Run can
					// return the error instead of deadlocking.
					w.bar.abort()
				}
			}()
			errs[rank] = body(&Comm{rank: rank, world: w})
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.world.size }

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() error { return c.world.bar.await() }

// cyclicBarrier is a reusable N-party barrier with abort support.
type cyclicBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	count   int
	gen     uint64
	aborted bool
}

func newCyclicBarrier(n int) *cyclicBarrier {
	b := &cyclicBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// ErrAborted reports that a peer rank panicked while others were inside
// a collective.
var ErrAborted = errors.New("mpi: collective aborted by peer failure")

func (b *cyclicBarrier) await() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return ErrAborted
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return nil
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
	if b.aborted {
		return ErrAborted
	}
	return nil
}

func (b *cyclicBarrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
