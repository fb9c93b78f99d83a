// Package phase implements the discretised six-dimensional phase-space
// distribution function of the massive neutrinos.
//
// The memory layout follows the paper's List 1: the spatial grid is the
// slow index and each spatial cell owns a complete, contiguous velocity-space
// cube. As §5.1.3 explains, this makes every velocity moment (density, mean
// velocity, velocity dispersion) a purely local reduction that needs
// no communication under spatial domain decomposition. Values are stored in
// float32 — the paper's Vlasov arrays are single precision — while all
// reductions accumulate in float64.
package phase

import (
	"fmt"
	"math"

	"vlasov6d/internal/par"
)

// Grid is a block of 6D phase space: NX×NY×NZ spatial cells, each holding an
// NU[0]×NU[1]×NU[2] velocity cube.
type Grid struct {
	NX, NY, NZ int
	NU         [3]int
	// Box is the physical extent covered by this block along x, y, z in
	// comoving h⁻¹Mpc (for a decomposed run, the sub-domain extent).
	Box [3]float64
	// UMax is the velocity-space half-extent: u ∈ [−UMax, +UMax) km/s.
	UMax float64
	// Data holds f(x, u) in row-major order
	// (((ix·NY+iy)·NZ+iz)·NU0+jx)·NU1+jy)·NU2+jz.
	Data []float32

	// workers pins the ParallelCells worker count (0 = GOMAXPROCS at call
	// time, the historical default); set through SetWorkers.
	workers int

	// partial is the reusable per-cell reduction scratch of TotalMass.
	// Clone drops it so a snapshot never shares scratch with the evolving
	// original.
	partial []float64
}

// SetWorkers pins the number of goroutines ParallelCells (and everything
// built on it: ComputeMoments, the moment maps) parallelises over
// (minimum 1). Without it the reductions read GOMAXPROCS at call time,
// invisible to any scheduler-owned core budget. Cells are disjoint, so the
// worker count never changes the computed values.
func (g *Grid) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	g.workers = n
}

// New allocates a phase-space grid. All extents must be positive, the
// velocity extents at least 6 (the SL-MPP5 stencil width), and their product
// (the cell count) must fit in an int.
func New(nx, ny, nz int, nu [3]int, box [3]float64, umax float64) (*Grid, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("phase: invalid spatial extents %d×%d×%d", nx, ny, nz)
	}
	for d, n := range nu {
		if n < 6 {
			return nil, fmt.Errorf("phase: velocity extent NU[%d]=%d < 6", d, n)
		}
	}
	for d, b := range box {
		if b <= 0 {
			return nil, fmt.Errorf("phase: invalid box extent Box[%d]=%v", d, b)
		}
	}
	if umax <= 0 {
		return nil, fmt.Errorf("phase: invalid UMax %v", umax)
	}
	n := 1
	for _, e := range [6]int{nx, ny, nz, nu[0], nu[1], nu[2]} {
		if n > math.MaxInt/e {
			return nil, fmt.Errorf("phase: %d×%d×%d × %v cells overflow int", nx, ny, nz, nu)
		}
		n *= e
	}
	return &Grid{
		NX: nx, NY: ny, NZ: nz, NU: nu, Box: box, UMax: umax,
		Data: make([]float32, n),
	}, nil
}

// Clone returns a deep copy sharing no storage with g: a scratch grid to
// sweep or time without touching the original.
func (g *Grid) Clone() *Grid {
	c := *g
	c.Data = append([]float32(nil), g.Data...)
	c.partial = nil
	return &c
}

// NCells returns the number of spatial cells in the block.
func (g *Grid) NCells() int { return g.NX * g.NY * g.NZ }

// NCube returns the number of velocity cells per spatial cell.
func (g *Grid) NCube() int { return g.NU[0] * g.NU[1] * g.NU[2] }

// DX returns the spatial cell width along dimension d.
func (g *Grid) DX(d int) float64 {
	switch d {
	case 0:
		return g.Box[0] / float64(g.NX)
	case 1:
		return g.Box[1] / float64(g.NY)
	default:
		return g.Box[2] / float64(g.NZ)
	}
}

// DU returns the velocity cell width along velocity dimension d.
func (g *Grid) DU(d int) float64 { return 2 * g.UMax / float64(g.NU[d]) }

// U returns the velocity-cell-centre coordinate of index j along dimension d.
func (g *Grid) U(d, j int) float64 {
	return -g.UMax + (float64(j)+0.5)*g.DU(d)
}

// CellIndex returns the flat spatial index of (ix, iy, iz).
func (g *Grid) CellIndex(ix, iy, iz int) int {
	return (ix*g.NY+iy)*g.NZ + iz
}

// Cube returns the contiguous velocity cube of spatial cell (ix, iy, iz).
func (g *Grid) Cube(ix, iy, iz int) []float32 {
	nc := g.NCube()
	off := g.CellIndex(ix, iy, iz) * nc
	return g.Data[off : off+nc]
}

// CubeAt returns the velocity cube of a flat spatial index.
func (g *Grid) CubeAt(cell int) []float32 {
	nc := g.NCube()
	return g.Data[cell*nc : (cell+1)*nc]
}

// runCellRanges is the parallel dispatch path of the built-in reductions:
// [0, ncell) is split into one contiguous range per worker. Callers handle
// nw ≤ 1 serially first with a direct method call — no closure is created,
// which keeps steady-state single-worker reductions allocation-free.
func (g *Grid) runCellRanges(ncell, nw int, run func(lo, hi int)) {
	par.Ranges(ncell, nw, func(_, lo, hi int) error {
		run(lo, hi)
		return nil
	})
}

// ParallelCells runs fn over every spatial cell, using all CPUs unless
// SetWorkers pinned the count.
func (g *Grid) ParallelCells(fn func(ix, iy, iz int)) {
	cells := func(lo, hi int) {
		for c := lo; c < hi; c++ {
			fn(c/(g.NY*g.NZ), (c/g.NZ)%g.NY, c%g.NZ)
		}
	}
	ncell := g.NCells()
	if nw := par.Workers(g.workers, ncell); nw > 1 {
		g.runCellRanges(ncell, nw, cells)
	} else {
		cells(0, ncell)
	}
}

// Moments holds the velocity moments of the distribution function on the
// spatial grid: the paper's dens, u*_mean fields of List 1 plus the scalar
// velocity dispersion used in Fig. 6.
type Moments struct {
	NX, NY, NZ int
	// Density is ρ(x) = ∫ f d³u (mass per comoving volume).
	Density []float64
	// MeanU is the density-weighted mean canonical velocity per component.
	MeanU [3][]float64
	// Sigma is the 1D velocity dispersion σ = sqrt(trace(σ²ᵢⱼ)/3).
	Sigma []float64
}

// ensureF64 returns s resized to n, reusing the backing array when it fits.
func ensureF64(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// ComputeMoments reduces the velocity cubes to their first three moments.
// The reduction is local per spatial cell — the design property the paper's
// domain decomposition (§5.1.3) is built around — and parallel over cells.
// It allocates a fresh Moments every call; step loops that recompute moments
// every step should use ComputeMomentsInto with a reused buffer instead.
func (g *Grid) ComputeMoments() *Moments {
	return g.ComputeMomentsInto(nil)
}

// ComputeMomentsInto is ComputeMoments writing into m, reusing its slices
// when they fit (m == nil allocates a new one). Every cell of every field is
// written, so a recycled Moments never leaks stale values. With a warm m and
// one worker the reduction is allocation-free.
func (g *Grid) ComputeMomentsInto(m *Moments) *Moments {
	ncell := g.NCells()
	if m == nil {
		m = &Moments{}
	}
	m.NX, m.NY, m.NZ = g.NX, g.NY, g.NZ
	m.Density = ensureF64(m.Density, ncell)
	m.Sigma = ensureF64(m.Sigma, ncell)
	for d := 0; d < 3; d++ {
		m.MeanU[d] = ensureF64(m.MeanU[d], ncell)
	}
	du3 := g.DU(0) * g.DU(1) * g.DU(2)
	nw := par.Workers(g.workers, ncell)
	if nw <= 1 {
		g.momentsRange(m, 0, ncell, du3)
		return m
	}
	g.runCellRanges(ncell, nw, func(lo, hi int) {
		g.momentsRange(m, lo, hi, du3)
	})
	return m
}

func (g *Grid) momentsRange(m *Moments, lo, hi int, du3 float64) {
	du0, du1, du2 := g.DU(0), g.DU(1), g.DU(2)
	for cell := lo; cell < hi; cell++ {
		cube := g.CubeAt(cell)
		var mass, px, py, pz, uxx, uyy, uzz float64
		idx := 0
		for jx := 0; jx < g.NU[0]; jx++ {
			ux := -g.UMax + (float64(jx)+0.5)*du0
			for jy := 0; jy < g.NU[1]; jy++ {
				uy := -g.UMax + (float64(jy)+0.5)*du1
				for jz := 0; jz < g.NU[2]; jz++ {
					f := float64(cube[idx])
					idx++
					if f == 0 {
						continue
					}
					uz := -g.UMax + (float64(jz)+0.5)*du2
					mass += f
					px += f * ux
					py += f * uy
					pz += f * uz
					uxx += f * ux * ux
					uyy += f * uy * uy
					uzz += f * uz * uz
				}
			}
		}
		m.Density[cell] = mass * du3
		if mass > 0 {
			mx, my, mz := px/mass, py/mass, pz/mass
			m.MeanU[0][cell] = mx
			m.MeanU[1][cell] = my
			m.MeanU[2][cell] = mz
			tr := uxx/mass - mx*mx + uyy/mass - my*my + uzz/mass - mz*mz
			if tr < 0 {
				tr = 0
			}
			m.Sigma[cell] = math.Sqrt(tr / 3)
		} else {
			m.MeanU[0][cell] = 0
			m.MeanU[1][cell] = 0
			m.MeanU[2][cell] = 0
			m.Sigma[cell] = 0
		}
	}
}

// DensityInto writes the density moment ρ(x) = ∫ f d³u into dst (reused when
// it fits, allocated otherwise) and returns it: ComputeMoments().Density,
// bit for bit, for a seventh of the arithmetic — what a force evaluation
// needs of the moments. With a warm dst and one worker it allocates nothing.
func (g *Grid) DensityInto(dst []float64) []float64 {
	dst = ensureF64(dst, g.NCells())
	g.cubeSums(dst, g.DU(0)*g.DU(1)*g.DU(2))
	return dst
}

// TotalMass returns ∫ f d³x d³u over the block. The per-cell partial-sum
// scratch is owned by the grid and reused across calls.
func (g *Grid) TotalMass() float64 {
	dv := g.DX(0) * g.DX(1) * g.DX(2) * g.DU(0) * g.DU(1) * g.DU(2)
	g.partial = ensureF64(g.partial, g.NCells())
	g.cubeSums(g.partial, 1)
	total := 0.0
	for _, p := range g.partial {
		total += p
	}
	return total * dv
}

// cubeSums writes scale·Σ f over each cell's velocity cube into out, in
// parallel over cells.
func (g *Grid) cubeSums(out []float64, scale float64) {
	ncell := g.NCells()
	if nw := par.Workers(g.workers, ncell); nw > 1 {
		g.runCellRanges(ncell, nw, func(lo, hi int) {
			g.massRange(out, lo, hi, scale)
		})
		return
	}
	g.massRange(out, 0, ncell, scale)
}

func (g *Grid) massRange(out []float64, lo, hi int, scale float64) {
	for cell := lo; cell < hi; cell++ {
		cube := g.CubeAt(cell)
		s := 0.0
		for _, v := range cube {
			s += float64(v)
		}
		out[cell] = s * scale
	}
}

// MinValue returns the minimum of f over the block (negative values indicate
// a positivity violation).
func (g *Grid) MinValue() float32 {
	if len(g.Data) == 0 {
		return 0
	}
	mn := g.Data[0]
	for _, v := range g.Data {
		if v < mn {
			mn = v
		}
	}
	return mn
}

// Scale multiplies every value by s (used to normalise initial conditions to
// a target mean density).
func (g *Grid) Scale(s float64) {
	fs := float32(s)
	for i := range g.Data {
		g.Data[i] *= fs
	}
}
