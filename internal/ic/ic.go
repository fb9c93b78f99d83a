// Package ic generates the cosmological initial conditions of the hybrid
// simulation at the starting redshift (the paper uses z = 10 for the
// time-to-solution runs):
//
//   - a Gaussian random density field with the linear power spectrum of
//     package cosmo, scaled to the start epoch with the growth factor;
//   - CDM particles on a lattice, displaced and kicked with the Zel'dovich
//     approximation;
//   - the neutrino distribution function f(x,u) = n(x)·F_FD(|u|) — the
//     homogeneous relativistic Fermi-Dirac velocity distribution modulated
//     by the (free-streaming-suppressed) neutrino density perturbation.
//
// Both components colour the same white noise per mesh size: whiteNoise(n)
// lays the seed's one random stream onto the n³ mesh. On a shared mesh the
// CDM and neutrino fields are therefore phase-coherent, as the physical
// adiabatic perturbations are; on different meshes (a hybrid run whose NGrid
// differs from its NPartSide) the same stream gives unrelated phases.
package ic

import (
	"fmt"
	"math"
	"math/rand"

	"vlasov6d/internal/cosmo"
	"vlasov6d/internal/fft"
	"vlasov6d/internal/nbody"
	"vlasov6d/internal/phase"
	"vlasov6d/internal/units"
)

// Generator produces coherent initial conditions for both components.
type Generator struct {
	Par  cosmo.Params
	PS   *cosmo.PowerSpectrum
	Box  float64 // box size, h⁻¹Mpc
	Seed int64
}

// NewGenerator validates parameters and builds the power spectrum.
func NewGenerator(par cosmo.Params, box float64, seed int64) (*Generator, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	if box <= 0 {
		return nil, fmt.Errorf("ic: invalid box %v", box)
	}
	return &Generator{Par: par, PS: cosmo.NewPowerSpectrum(par), Box: box, Seed: seed}, nil
}

// Component selects which species' transfer function shapes the field.
type Component int

// The two matter components of the hybrid scheme.
const (
	CDM Component = iota
	Neutrino
)

// whiteNoise returns the deterministic unit-variance real white-noise field
// for mesh size n (the same for both components on that mesh).
func (g *Generator) whiteNoise(n int) []float64 {
	rng := rand.New(rand.NewSource(g.Seed))
	w := make([]float64, n*n*n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return w
}

// DeltaField returns the linear overdensity field δ(x) for the component on
// an n³ mesh at scale factor a.
func (g *Generator) DeltaField(n int, a float64, comp Component) ([]float64, error) {
	spec, f3, err := g.spectrum(n, a, comp)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n*n*n)
	if err := f3.InverseReal(spec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// spectrum returns the half spectrum of whiteNoise(n) coloured for the
// component at scale factor a, and the transform that took it. The
// normalisation follows the standard estimator P(k) = V·⟨|δ̂_k|²⟩/N⁶: each
// mode is multiplied by growth·sqrt(P(k)/V_cell), and the DC mode is zero.
func (g *Generator) spectrum(n int, a float64, comp Component) ([]complex128, *fft.FFT3, error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("ic: mesh %d too small", n)
	}
	f3, err := fft.NewFFT3(n, n, n)
	if err != nil {
		return nil, nil, err
	}
	spec := make([]complex128, f3.HalfLen())
	if err := f3.ForwardReal(g.whiteNoise(n), spec); err != nil {
		return nil, nil, err
	}
	pk := g.PS.CB
	if comp == Neutrino {
		pk = g.PS.Nu
	}
	vcell := math.Pow(g.Box/float64(n), 3)
	growth := g.Par.GrowthFactor(a)
	kf := 2 * math.Pi / g.Box
	idx := 0
	for ix := 0; ix < n; ix++ {
		mx := fft.Freq(ix, n)
		for iy := 0; iy < n; iy++ {
			my := fft.Freq(iy, n)
			for mz := 0; mz <= n/2; mz++ {
				k := kf * math.Sqrt(float64(mx*mx+my*my+mz*mz))
				if k == 0 {
					spec[idx] = 0
				} else {
					spec[idx] *= complex(growth*math.Sqrt(pk(k)/vcell), 0)
				}
				idx++
			}
		}
	}
	return spec, f3, nil
}

// displacementField returns the three Zel'dovich displacement component
// fields Ψ = ∇∇⁻²δ on the n³ mesh for the CDM component at scale factor a.
func (g *Generator) displacementField(n int, a float64) ([3][]float64, error) {
	var psi [3][]float64
	base, f3, err := g.spectrum(n, a, CDM)
	if err != nil {
		return psi, err
	}
	kf := 2 * math.Pi / g.Box
	comp := make([]complex128, len(base))
	for d := 0; d < 3; d++ {
		idx := 0
		for ix := 0; ix < n; ix++ {
			for iy := 0; iy < n; iy++ {
				for iz := 0; iz <= n/2; iz++ {
					m := [3]int{fft.Freq(ix, n), fft.Freq(iy, n), iz}
					k2 := 0.0
					for dd := 0; dd < 3; dd++ {
						kk := kf * float64(m[dd])
						k2 += kk * kk
					}
					// The derivative of a real field has no Nyquist term
					// along its own axis: i·k_d is odd in k_d, and there
					// k_d is its own alias.
					if k2 == 0 || 2*m[d] == n {
						comp[idx] = 0
					} else {
						// Ψ̂ = i k δ̂ / k².
						comp[idx] = base[idx] * complex(0, kf*float64(m[d])/k2)
					}
					idx++
				}
			}
		}
		psi[d] = make([]float64, n*n*n)
		if err := f3.InverseReal(comp, psi[d]); err != nil {
			return psi, err
		}
	}
	return psi, nil
}

// CDMParticles places nside³ equal-mass particles with Zel'dovich
// displacements and velocities at scale factor a. The particle mass
// reproduces the CDM+baryon mean density of the parameter set.
func (g *Generator) CDMParticles(nside int, a float64) (*nbody.Particles, error) {
	if nside < 2 {
		return nil, fmt.Errorf("ic: nside %d too small", nside)
	}
	psi, err := g.displacementField(nside, a)
	if err != nil {
		return nil, err
	}
	n3 := nside * nside * nside
	totalMass := g.Par.MeanCBDensity() * g.Box * g.Box * g.Box
	p, err := nbody.NewParticles(n3, totalMass/float64(n3), [3]float64{g.Box, g.Box, g.Box})
	if err != nil {
		return nil, err
	}
	h := g.Box / float64(nside)
	// Zel'dovich velocity: ẋ = H(a)·f(a)·Ψ comoving, canonical u = a²ẋ.
	vfac := a * a * g.Par.Hubble(a) * g.Par.GrowthRate(a)
	i := 0
	for ix := 0; ix < nside; ix++ {
		for iy := 0; iy < nside; iy++ {
			for iz := 0; iz < nside; iz++ {
				q := [3]float64{
					(float64(ix) + 0.5) * h,
					(float64(iy) + 0.5) * h,
					(float64(iz) + 0.5) * h,
				}
				for d := 0; d < 3; d++ {
					p.Pos[d][i] = p.Wrap(d, q[d]+psi[d][i])
					p.Vel[d][i] = vfac * psi[d][i]
				}
				i++
			}
		}
	}
	return p, nil
}

// NeutrinoParticles samples the neutrino component with particles (the
// TianNu-style baseline of §5.4): lattice positions perturbed by the CDM's
// Zel'dovich displacement field, plus a thermal velocity drawn from the
// relativistic Fermi-Dirac distribution. The thermal sampling is the source
// of the shot noise the Vlasov method eliminates.
func (g *Generator) NeutrinoParticles(nside int, a float64) (*nbody.Particles, error) {
	if nside < 2 {
		return nil, fmt.Errorf("ic: nside %d too small", nside)
	}
	// The CDM displacement, unchanged: the particles start with the CDM's
	// clustering, not the free-streaming-suppressed ν spectrum.
	psi, err := g.displacementField(nside, a)
	if err != nil {
		return nil, err
	}
	n3 := nside * nside * nside
	totalMass := g.Par.MeanNuDensity() * g.Box * g.Box * g.Box
	p, err := nbody.NewParticles(n3, totalMass/float64(n3), [3]float64{g.Box, g.Box, g.Box})
	if err != nil {
		return nil, err
	}
	h := g.Box / float64(nside)
	vfac := a * a * g.Par.Hubble(a) * g.Par.GrowthRate(a)
	uT := g.ThermalScale()
	rng := rand.New(rand.NewSource(g.Seed + 1))
	i := 0
	for ix := 0; ix < nside; ix++ {
		for iy := 0; iy < nside; iy++ {
			for iz := 0; iz < nside; iz++ {
				q := [3]float64{
					(float64(ix) + 0.5) * h,
					(float64(iy) + 0.5) * h,
					(float64(iz) + 0.5) * h,
				}
				th := sampleFermiDirac(rng, uT)
				for d := 0; d < 3; d++ {
					p.Pos[d][i] = p.Wrap(d, q[d]+psi[d][i])
					p.Vel[d][i] = vfac*psi[d][i] + th[d]
				}
				i++
			}
		}
	}
	return p, nil
}

// ThermalScale returns the canonical-velocity Fermi-Dirac scale
// u_T = kTν0·c/(mν c²) in km/s (constant in time for u = a²ẋ).
func (g *Generator) ThermalScale() float64 {
	// NeutrinoThermalVelocity returns 3.15137·u_T (the FD mean speed).
	return units.NeutrinoThermalVelocity(g.Par.SumMNuEV/3, 1) / 3.15137
}

// sampleFermiDirac draws an isotropic velocity from the relativistic FD
// speed distribution p(y) ∝ y²/(e^y+1) by rejection, scaled by uT.
func sampleFermiDirac(rng *rand.Rand, uT float64) [3]float64 {
	// Envelope: y²e^{-y} scaled; p(y) ≤ y²e^{-y} for y ≥ 0 … since
	// 1/(e^y+1) ≤ e^{-y}. Sample y from Gamma(3,1) via sum of three
	// exponentials and accept with probability e^y/(e^y+1).
	for {
		y := -math.Log(rng.Float64()) - math.Log(rng.Float64()) - math.Log(rng.Float64())
		if rng.Float64() < 1/(1+math.Exp(-y)) {
			// Isotropic direction.
			cosT := 2*rng.Float64() - 1
			sinT := math.Sqrt(1 - cosT*cosT)
			phi := 2 * math.Pi * rng.Float64()
			v := y * uT
			return [3]float64{v * sinT * math.Cos(phi), v * sinT * math.Sin(phi), v * cosT}
		}
	}
}

// FillNeutrinoGrid initialises the phase-space grid with
// f(x,u) = ρ̄ν·(1+δν(x))·F(|u|), where F is the relativistic Fermi-Dirac
// velocity profile normalised so that ∫F d³u = 1 on the DISCRETE velocity
// grid (making the density moment exact at round-off). The spatial mesh of
// the grid must match n³ = NX·NY·NZ of the δν field, which is generated
// internally at scale factor a.
func (g *Generator) FillNeutrinoGrid(grid *phase.Grid, a float64) error {
	if grid.NX != grid.NY || grid.NY != grid.NZ {
		return fmt.Errorf("ic: cubic spatial grids only")
	}
	delta, err := g.DeltaField(grid.NX, a, Neutrino)
	if err != nil {
		return err
	}
	uT := g.ThermalScale()
	// The FD profile on this velocity grid, and its discrete normalisation.
	profile := make([]float64, grid.NCube())
	norm := 0.0
	for j := range profile {
		ux, uy, uz := grid.U(0, j/(grid.NU[1]*grid.NU[2])), grid.U(1, j/grid.NU[2]%grid.NU[1]), grid.U(2, j%grid.NU[2])
		profile[j] = units.FermiDirac(math.Sqrt(ux*ux+uy*uy+uz*uz) / uT)
		norm += profile[j]
	}
	norm *= grid.DU(0) * grid.DU(1) * grid.DU(2)
	if norm <= 0 {
		return fmt.Errorf("ic: velocity grid does not resolve the FD profile (UMax=%v, uT=%v)", grid.UMax, uT)
	}
	rhoBar := g.Par.MeanNuDensity()
	grid.ParallelCells(func(ix, iy, iz int) {
		cell := grid.CellIndex(ix, iy, iz)
		d := delta[cell]
		if d < -0.999 {
			d = -0.999 // guard against unphysical linear excursions
		}
		amp := rhoBar * (1 + d) / norm
		cube := grid.CubeAt(cell)
		for j := range cube {
			cube[j] = float32(amp * profile[j])
		}
	})
	return nil
}
