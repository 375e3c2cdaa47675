package pfs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// priceConfigs are the cost models the pricing tests run under: byte
// scale 1 and > 1 (the latter shrinks the stored stripe, so reads span
// many stripes and OSTs), each at contention 1 and 4.
func priceConfigs() []priceConfig {
	var out []priceConfig
	for _, scale := range []float64{1, 4096} {
		for _, contention := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.ByteScale = scale
			out = append(out, priceConfig{cfg, contention})
		}
	}
	return out
}

type priceConfig struct {
	cfg        Config
	contention int
}

// randomExtents draws a list of up to 40 extents inside a file of size
// bytes, unsorted and overlapping at random, with gaps both under and
// over the coalescing threshold.
func randomExtents(rng *rand.Rand, size int64) []Extent {
	out := make([]Extent, 1+rng.Intn(40))
	for i := range out {
		off := rng.Int63n(size - 1)
		out[i] = Extent{Off: off, Len: 1 + rng.Int63n(min(size-off, 1+rng.Int63n(1<<17)))}
	}
	return out
}

// TestPriceMatchesReadExtents pins the planner's price to the charge:
// for random extent lists, PriceRead equals the clock delta of Open plus
// ReadExtents on a clock whose heads hold nothing of the file.
func TestPriceMatchesReadExtents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, pc := range priceConfigs() {
		t.Run(fmt.Sprintf("scale%g/contention%d", pc.cfg.ByteScale, pc.contention), func(t *testing.T) {
			fs := New(pc.cfg)
			const size = 3 << 20
			for _, path := range []string{"a", "bin/0007/data"} {
				if err := fs.WriteFile(NewClock(), path, make([]byte, size)); err != nil {
					t.Fatal(err)
				}
			}
			var sc PriceScratch
			for i := 0; i < 200; i++ {
				path := []string{"a", "bin/0007/data"}[i%2]
				ext := randomExtents(rng, size)
				priced := append([]Extent(nil), ext...)
				price := fs.PriceRead(&sc, fs.FileOST(path), priced, float64(pc.contention))

				clk := fs.NewClocks(pc.contention)[0]
				if i%3 == 0 {
					// A head left in another file changes nothing.
					if _, err := fs.ReadAt(clk, otherPath(path), 0, 4096); err != nil {
						t.Fatal(err)
					}
				}
				t0 := clk.Now()
				if err := fs.Open(clk, path); err != nil {
					t.Fatal(err)
				}
				if _, _, err := fs.ReadExtents(clk, path, ext); err != nil {
					t.Fatal(err)
				}
				if got := clk.Now() - t0; math.Abs(got-price) > 1e-12 {
					t.Fatalf("list %d on %s: price %.15g, charged %.15g", i, path, price, got)
				}
			}
		})
	}
}

// otherPath names the test file that is not path.
func otherPath(path string) string {
	if path == "a" {
		return "bin/0007/data"
	}
	return "a"
}

// stripeWalk is the per-stripe transfer walk that transfer's closed form
// replaced, kept as its reference: it visits every stripe of the range
// and charges a seek wherever an OST's head is not where the next
// stripe starts in object space.
func (s *Sim) stripeWalk(work []ostWork, heads []headPos, fileID int64, first int, offset, length int64, contention, bw float64) float64 {
	clear(work)
	stripe := s.stripe
	for pos := offset; pos < offset+length; {
		idx := pos / stripe
		end := min((idx+1)*stripe, offset+length)
		w := &work[(int(idx)+first)%s.cfg.NumOSTs]
		objOff := (idx/int64(s.cfg.NumOSTs))*stripe + pos%stripe
		if !w.touched {
			w.touched = true
			h := heads[(int(idx)+first)%s.cfg.NumOSTs]
			if !h.valid || h.fileID != fileID || h.off != objOff {
				w.seeks++
			}
		} else if w.lastEnd != objOff {
			w.seeks++
		}
		w.bytes += end - pos
		w.lastEnd = objOff + (end - pos)
		pos = end
	}
	slowest := 0.0
	for i := range work {
		if w := &work[i]; w.touched {
			w.cost = float64(w.seeks)*s.cfg.SeekLatency + float64(w.bytes)*s.byteScale()*max(contention, 1)/bw
			slowest = max(slowest, w.cost)
		}
	}
	return slowest
}

// TestTransferMatchesStripeWalk checks transfer's O(NumOSTs) closed form
// against the stripe-by-stripe walk, OST by OST, from random heads.
func TestTransferMatchesStripeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, pc := range priceConfigs() {
		fs := New(pc.cfg)
		n := fs.cfg.NumOSTs
		got, want := make([]ostWork, n), make([]ostWork, n)
		heads := make([]headPos, n)
		for i := 0; i < 2000; i++ {
			for o := range heads {
				heads[o] = headPos{fileID: int64(rng.Intn(2)), off: rng.Int63n(4) * fs.stripe, valid: rng.Intn(4) > 0}
			}
			off, length := rng.Int63n(8<<20), 1+rng.Int63n(4<<20)
			first := rng.Intn(n)
			c := float64(pc.contention)
			a := fs.transfer(got, heads, 1, first, off, length, c, fs.cfg.ReadBW)
			b := fs.stripeWalk(want, heads, 1, first, off, length, c, fs.cfg.ReadBW)
			if a != b {
				t.Fatalf("scale %g: [%d,+%d) from OST %d: transfer %v, walk %v", pc.cfg.ByteScale, off, length, first, a, b)
			}
			for o := range got {
				if got[o] != want[o] {
					t.Fatalf("scale %g: [%d,+%d) OST %d: transfer %+v, walk %+v", pc.cfg.ByteScale, off, length, o, got[o], want[o])
				}
			}
		}
	}
}
