// Package poisson solves the comoving Poisson equation (the paper's eq. 2)
// on a periodic Cartesian mesh with the FFT convolution method of Hockney &
// Eastwood, exactly as the paper's PM solver does:
//
//	∇²φ(x) = coeff · δρ(x),   φ_k = −coeff · δρ_k / k²,   φ_{k=0} = 0,
//
// where coeff = 4πG a²(ρ−ρ̄)-normalisation is supplied by the caller (see
// cosmo.Params.PoissonCoeff) and δρ is the comoving overdensity contributed
// by BOTH matter components — the CIC-deposited N-body particles and the
// velocity-space integral of the neutrino distribution function.
//
// The density is real, so the solver works on the Hermitian half of its
// spectrum (fft.FFT3's real transforms: half the flops and half the complex
// working set), and the solve is two calls: Transform takes the density to
// its spectrum, which the solver keeps; Potential applies a Green's function
// (times the TreePM long-range filter) to a copy and inverts. A TreePM step
// wants the filtered and the unfiltered potential of one density — one
// Transform, two Potentials. SolveFiltered is the one-shot form.
//
// The mesh-space gravitational acceleration −∇φ is obtained with
// fourth-order central differences, the standard PM choice.
package poisson

import (
	"fmt"
	"math"

	"vlasov6d/internal/fft"
)

// Solver holds the transform plans and Green's function for a fixed mesh.
type Solver struct {
	N    [3]int
	Box  [3]float64
	f3   *fft.FFT3
	kfac [3][]float64 // squared wavenumbers per axis
	filt [3][]float64 // per-axis factors of the TreePM filter, refilled per Potential
	rhoK []complex128 // half spectrum of the last Transform's source
	work []complex128 // Green's function × rhoK, consumed by the inverse
}

// NewSolver creates a Poisson solver for an n[0]×n[1]×n[2] periodic mesh
// covering a box of physical size box (h⁻¹Mpc).
func NewSolver(n [3]int, box [3]float64) (*Solver, error) {
	for d := 0; d < 3; d++ {
		if n[d] < 2 {
			return nil, fmt.Errorf("poisson: invalid mesh %v", n)
		}
		if box[d] <= 0 {
			return nil, fmt.Errorf("poisson: invalid box %v", box)
		}
	}
	f3, err := fft.NewFFT3(n[0], n[1], n[2])
	if err != nil {
		return nil, err
	}
	s := &Solver{N: n, Box: box, f3: f3}
	for d := 0; d < 3; d++ {
		s.kfac[d] = make([]float64, n[d])
		s.filt[d] = make([]float64, n[d])
		for i := 0; i < n[d]; i++ {
			k := 2 * math.Pi * float64(fft.Freq(i, n[d])) / box[d]
			s.kfac[d][i] = k * k
		}
	}
	s.rhoK = make([]complex128, f3.HalfLen())
	s.work = make([]complex128, f3.HalfLen())
	return s, nil
}

// Size returns the number of mesh cells.
func (s *Solver) Size() int { return s.N[0] * s.N[1] * s.N[2] }

// SetWorkers pins the worker count of the underlying 3D FFTs (minimum 1),
// so a scheduler-owned core budget bounds the PM solve's parallelism.
func (s *Solver) SetWorkers(n int) { s.f3.SetWorkers(n) }

// Solve computes the potential for the given source: ∇²φ = coeff·src.
// src is a real field of length Size(); the result is written into phi
// (allocated when nil) and returned. The mean of src is projected out, which
// implements the (ρ − ρ̄) subtraction of eq. (2).
func (s *Solver) Solve(src []float64, coeff float64, phi []float64) ([]float64, error) {
	return s.SolveFiltered(src, coeff, 0, phi)
}

// SolveFiltered is Solve with the TreePM long-range filter applied in
// Fourier space: φ_k = −coeff·exp(−k²·rs²)·δρ_k/k². With rs = 0 it reduces
// to the plain periodic solution; with rs > 0 it returns the long-range
// potential whose complement is supplied by the tree's erfc short-range
// force (package tree). It is Transform followed by Potential.
func (s *Solver) SolveFiltered(src []float64, coeff, rs float64, phi []float64) ([]float64, error) {
	if err := s.Transform(src); err != nil {
		return nil, err
	}
	return s.Potential(coeff, rs, phi)
}

// Transform takes the source field (real, length Size()) to its spectrum and
// keeps it for the Potential calls that follow; src is left untouched.
func (s *Solver) Transform(src []float64) error {
	if len(src) != s.Size() {
		return fmt.Errorf("poisson: source length %d != %d", len(src), s.Size())
	}
	return s.f3.ForwardReal(src, s.rhoK)
}

// Potential returns the potential of the last transformed source, filtered
// at rs as in SolveFiltered, in phi (allocated when nil). The stored
// spectrum is not modified, so any number of potentials can be taken from
// one Transform.
func (s *Solver) Potential(coeff, rs float64, phi []float64) ([]float64, error) {
	if phi == nil {
		phi = make([]float64, s.Size())
	} else if len(phi) != s.Size() {
		return nil, fmt.Errorf("poisson: phi length %d != %d", len(phi), s.Size())
	}
	s.fillFilter(rs)
	w := s.work
	nzh := s.N[2]/2 + 1
	kz2, fz := s.kfac[2][:nzh], s.filt[2][:nzh]
	for ix := 0; ix < s.N[0]; ix++ {
		for iy := 0; iy < s.N[1]; iy++ {
			kxy2 := s.kfac[0][ix] + s.kfac[1][iy]
			fxy := s.filt[0][ix] * s.filt[1][iy]
			o := (ix*s.N[1] + iy) * nzh
			row, out := s.rhoK[o:o+nzh], w[o:o+nzh]
			for iz, v := range row {
				k2 := kxy2 + kz2[iz]
				if k2 == 0 {
					out[iz] = 0 // remove the mean: φ is defined up to a constant
					continue
				}
				g := -coeff / k2 * (fxy * fz[iz])
				out[iz] = complex(real(v)*g, imag(v)*g)
			}
		}
	}
	if err := s.f3.InverseReal(w, phi); err != nil {
		return nil, err
	}
	return phi, nil
}

// fillFilter tabulates the long-range filter per axis: exp(−k²·rs²) is the
// product of one factor per component of k, so a solve takes N[0]+N[1]+N[2]
// exponentials, not one per cell. rs = 0 gives all ones (no filter).
func (s *Solver) fillFilter(rs float64) {
	for d := 0; d < 3; d++ {
		for i, k2 := range s.kfac[d] {
			s.filt[d][i] = math.Exp(-k2 * rs * rs)
		}
	}
}

// idx3 returns the flat index of (ix, iy, iz) with periodic wrapping.
func (s *Solver) idx3(ix, iy, iz int) int {
	ix = wrap(ix, s.N[0])
	iy = wrap(iy, s.N[1])
	iz = wrap(iz, s.N[2])
	return (ix*s.N[1]+iy)*s.N[2] + iz
}

func wrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// Gradient fills g with ∂φ/∂x_dim using fourth-order central differences:
// f'(x) ≈ [8(f₊₁−f₋₁) − (f₊₂−f₋₂)]/(12Δ).
func (s *Solver) Gradient(phi []float64, dim int, g []float64) error {
	n := s.Size()
	if len(phi) != n || len(g) != n {
		return fmt.Errorf("poisson: gradient length mismatch")
	}
	if dim < 0 || dim > 2 {
		return fmt.Errorf("poisson: invalid dim %d", dim)
	}
	h := s.Box[dim] / float64(s.N[dim])
	inv12h := 1 / (12 * h)
	var di [3]int
	di[dim] = 1
	for ix := 0; ix < s.N[0]; ix++ {
		for iy := 0; iy < s.N[1]; iy++ {
			for iz := 0; iz < s.N[2]; iz++ {
				p1 := phi[s.idx3(ix+di[0], iy+di[1], iz+di[2])]
				m1 := phi[s.idx3(ix-di[0], iy-di[1], iz-di[2])]
				p2 := phi[s.idx3(ix+2*di[0], iy+2*di[1], iz+2*di[2])]
				m2 := phi[s.idx3(ix-2*di[0], iy-2*di[1], iz-2*di[2])]
				g[s.idx3(ix, iy, iz)] = (8*(p1-m1) - (p2 - m2)) * inv12h
			}
		}
	}
	return nil
}

// Accel computes the acceleration field −∇φ into three freshly allocated
// component arrays. Step loops should use AccelInto with a reused buffer.
func (s *Solver) Accel(phi []float64) ([3][]float64, error) {
	var acc [3][]float64
	if err := s.AccelInto(phi, &acc); err != nil {
		return acc, err
	}
	return acc, nil
}

// AccelInto computes −∇φ into acc, reusing each component slice when it
// already has the mesh size (missing or mis-sized components are allocated).
// It is Gradient's stencil for all three components in one pass over φ, the
// sign folded into the weight: the x and y neighbours of a z-row are whole
// rows at wrapped offsets, so only the two cells at either end of a row ever
// wrap an index.
func (s *Solver) AccelInto(phi []float64, acc *[3][]float64) error {
	n := s.Size()
	if len(phi) != n {
		return fmt.Errorf("poisson: gradient length mismatch")
	}
	var c [3]float64
	for d := 0; d < 3; d++ {
		if len(acc[d]) != n {
			acc[d] = make([]float64, n)
		}
		c[d] = -1 / (12 * (s.Box[d] / float64(s.N[d])))
	}
	nx, ny, nz := s.N[0], s.N[1], s.N[2]
	zEnd := func(r []float64, iz int) float64 {
		return 8*(r[wrap(iz+1, nz)]-r[wrap(iz-1, nz)]) - (r[wrap(iz+2, nz)] - r[wrap(iz-2, nz)])
	}
	row := func(ix, iy int) []float64 {
		o := (wrap(ix, nx)*ny + wrap(iy, ny)) * nz
		return phi[o : o+nz]
	}
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			o := (ix*ny + iy) * nz
			ax, ay, az := acc[0][o:o+nz], acc[1][o:o+nz], acc[2][o:o+nz]
			xm2, xm1, xp1, xp2 := row(ix-2, iy), row(ix-1, iy), row(ix+1, iy), row(ix+2, iy)
			ym2, ym1, yp1, yp2 := row(ix, iy-2), row(ix, iy-1), row(ix, iy+1), row(ix, iy+2)
			r := phi[o : o+nz]
			for iz := range r {
				ax[iz] = (8*(xp1[iz]-xm1[iz]) - (xp2[iz] - xm2[iz])) * c[0]
				ay[iz] = (8*(yp1[iz]-ym1[iz]) - (yp2[iz] - ym2[iz])) * c[1]
			}
			for iz := 2; iz < nz-2; iz++ {
				az[iz] = (8*(r[iz+1]-r[iz-1]) - (r[iz+2] - r[iz-2])) * c[2]
			}
			for iz := 0; iz < min(2, nz); iz++ {
				az[iz] = zEnd(r, iz) * c[2]
			}
			for iz := max(2, nz-2); iz < nz; iz++ {
				az[iz] = zEnd(r, iz) * c[2]
			}
		}
	}
	return nil
}
