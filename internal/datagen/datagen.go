// Package datagen produces deterministic synthetic stand-ins for the
// paper's evaluation datasets (DESIGN.md §2):
//
//   - GTS-like: 2-D turbulence-style fields (the paper aggregates GTS's
//     1-D particle output over time steps into a 2-D space).
//   - S3D-like: 3-D reacting-flow-style fields with flame-kernel
//     temperature structure and smooth velocity components vu/vv/vw
//     (the variables Table VI analyzes).
//
// The generators control the two properties the compression and layout
// results depend on: spatial smoothness (ISABELA's B-spline fits,
// Hilbert locality) and byte-level entropy structure (ISOBAR's
// compressible/incompressible plane split).
package datagen

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"

	"mloc/internal/grid"
)

// Variable is a named field over a grid, row-major.
type Variable struct {
	Name string
	Data []float64
}

// Dataset is a named collection of variables over one grid shape.
type Dataset struct {
	Name  string
	Shape grid.Shape
	Vars  []Variable
}

// Var returns the named variable or an error.
func (d *Dataset) Var(name string) (*Variable, error) {
	for i := range d.Vars {
		if d.Vars[i].Name == name {
			return &d.Vars[i], nil
		}
	}
	return nil, fmt.Errorf("datagen: dataset %s has no variable %q", d.Name, name)
}

// mode is one sinusoidal component of a multi-scale field.
type mode struct {
	freq  []float64
	phase float64
	amp   float64
}

// randomModes draws nModes wave vectors with a 1/f amplitude spectrum,
// the canonical turbulence-like spectral shape.
func randomModes(r *rand.Rand, dims, nModes int, baseAmp float64) []mode {
	modes := make([]mode, nModes)
	for i := range modes {
		f := make([]float64, dims)
		var norm float64
		for d := 0; d < dims; d++ {
			f[d] = float64(r.Intn(16) + 1)
			if r.Intn(2) == 0 {
				f[d] = -f[d]
			}
			norm += f[d] * f[d]
		}
		norm = math.Sqrt(norm)
		modes[i] = mode{
			freq:  f,
			phase: r.Float64() * 2 * math.Pi,
			amp:   baseAmp / norm,
		}
	}
	return modes
}

func evalModes(modes []mode, pos []float64) float64 {
	var v float64
	for _, m := range modes {
		arg := m.phase
		for d, f := range m.freq {
			arg += 2 * math.Pi * f * pos[d]
		}
		v += m.amp * math.Sin(arg)
	}
	return v
}

// GTSLike generates a 2-D turbulence-like field of shape ny×nx:
// multi-scale fluctuations over a positive baseline (like a density or
// potential magnitude field) with a small noise floor. The positive
// baseline matters: pointwise-relative lossy compression (ISABELA) is
// only well-conditioned away from zero crossings, matching the physical
// fields the paper compresses.
func GTSLike(ny, nx int, seed int64) *Dataset {
	r := rand.New(rand.NewSource(seed))
	modes := randomModes(r, 2, 24, 1.2)
	data := make([]float64, ny*nx)
	pos := make([]float64, 2)
	for y := 0; y < ny; y++ {
		pos[0] = float64(y) / float64(ny)
		for x := 0; x < nx; x++ {
			pos[1] = float64(x) / float64(nx)
			data[y*nx+x] = 10 + evalModes(modes, pos) + r.NormFloat64()*0.01
		}
	}
	return &Dataset{
		Name:  "gts",
		Shape: grid.Shape{ny, nx},
		Vars:  []Variable{{Name: "phi", Data: data}},
	}
}

// S3DLike generates a 3-D combustion-like dataset of shape n×n×n with
// four variables: temp (ambient plus Gaussian flame kernels) and the
// velocity components vu, vv, vw (smooth multi-scale flows).
func S3DLike(n int, seed int64) *Dataset {
	r := rand.New(rand.NewSource(seed))
	shape := grid.Shape{n, n, n}
	total := shape.Elems()

	// Flame kernels for temperature.
	type kernel struct {
		c     [3]float64
		sigma float64
		amp   float64
	}
	kernels := make([]kernel, 6)
	for i := range kernels {
		kernels[i] = kernel{
			c:     [3]float64{r.Float64(), r.Float64(), r.Float64()},
			sigma: 0.05 + r.Float64()*0.15,
			amp:   800 + r.Float64()*1200,
		}
	}
	velModes := [3][]mode{
		randomModes(r, 3, 16, 8),
		randomModes(r, 3, 16, 8),
		randomModes(r, 3, 16, 8),
	}

	temp := make([]float64, total)
	vel := [3][]float64{
		make([]float64, total),
		make([]float64, total),
		make([]float64, total),
	}
	pos := make([]float64, 3)
	idx := 0
	for z := 0; z < n; z++ {
		pos[0] = float64(z) / float64(n)
		for y := 0; y < n; y++ {
			pos[1] = float64(y) / float64(n)
			for x := 0; x < n; x++ {
				pos[2] = float64(x) / float64(n)
				tv := 300.0 // ambient Kelvin
				for _, k := range kernels {
					d2 := 0.0
					for d := 0; d < 3; d++ {
						dd := pos[d] - k.c[d]
						d2 += dd * dd
					}
					tv += k.amp * math.Exp(-d2/(2*k.sigma*k.sigma))
				}
				temp[idx] = tv + r.NormFloat64()*0.5
				for d := 0; d < 3; d++ {
					vel[d][idx] = evalModes(velModes[d], pos) + r.NormFloat64()*0.02
				}
				idx++
			}
		}
	}
	return &Dataset{
		Name:  "s3d",
		Shape: shape,
		Vars: []Variable{
			{Name: "temp", Data: temp},
			{Name: "vu", Data: vel[0]},
			{Name: "vv", Data: vel[1]},
			{Name: "vw", Data: vel[2]},
		},
	}
}

// ReadRaw reads a file of little-endian float64 values — what `mlocctl
// gen` writes — that must hold exactly the points of shape.
func ReadRaw(path string, shape grid.Shape) ([]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if int64(len(raw)) != 8*shape.Elems() {
		return nil, fmt.Errorf("datagen: %s has %d bytes, shape %s needs %d", path, len(raw), shape, 8*shape.Elems())
	}
	data := make([]float64, shape.Elems())
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return data, nil
}

// Selectivity returns a value constraint [lo,hi] covering approximately
// the given fraction of values, centered on a random quantile — the
// random value constraints the paper's query workloads use. It samples
// up to maxSample points for the quantile estimate.
func Selectivity(data []float64, frac float64, seed int64, maxSample int) (lo, hi float64) {
	if frac <= 0 {
		frac = 0.01
	}
	if frac > 1 {
		frac = 1
	}
	sample := Sample(data, maxSample, seed)
	// Selection sort-free approach: full sort of the sample.
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	r := rand.New(rand.NewSource(seed))
	width := int(float64(len(sorted)) * frac)
	if width < 1 {
		width = 1
	}
	start := 0
	if len(sorted)-width > 0 {
		start = r.Intn(len(sorted) - width)
	}
	return sorted[start], sorted[start+width-1]
}

// Sample returns up to max values drawn deterministically from data.
func Sample(data []float64, max int, seed int64) []float64 {
	if len(data) <= max {
		return append([]float64(nil), data...)
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, max)
	for i := range out {
		out[i] = data[r.Intn(len(data))]
	}
	return out
}
