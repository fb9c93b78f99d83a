// Package cosmo implements the homogeneous background cosmology used by the
// hybrid Vlasov/N-body simulation: the Friedmann expansion history a(t), the
// linear growth factor, the relic-neutrino momentum distribution, and the
// linear matter power spectrum used to generate initial conditions.
//
// Conventions follow the paper (eqs. 1–2): comoving positions x, canonical
// velocities u = a²ẋ in km/s, and the comoving peculiar potential φ with
// ∇²φ = 4πG a² (ρ_proper − ρ̄_proper) = (4πG/a)(ρ_c − ρ̄_c), where ρ_c is the
// comoving mass density tracked by the code.
package cosmo

import (
	"fmt"
	"math"

	"vlasov6d/internal/units"
)

// Params holds the cosmological parameters of a run. The default values
// correspond to the Planck-2015-like model used in the paper with a total
// neutrino mass of 0.4 eV.
type Params struct {
	H        float64 // dimensionless Hubble parameter h
	OmegaM   float64 // total matter density today (CDM + baryons + ν)
	OmegaL   float64 // cosmological constant density today
	OmegaB   float64 // baryon density today (folded into the N-body component)
	SumMNuEV float64 // ΣMν over the three mass eigenstates, in eV
	NS       float64 // primordial spectral index
	Sigma8   float64 // power spectrum normalisation
}

// Planck2015 returns the paper's fiducial parameter set with the given total
// neutrino mass in eV (the paper uses 0.4 eV for scaling runs, and 0.2 eV for
// the comparison in Fig. 4).
func Planck2015(sumMNuEV float64) Params {
	return Params{
		H:        0.6774,
		OmegaM:   0.3089,
		OmegaL:   0.6911,
		OmegaB:   0.0486,
		SumMNuEV: sumMNuEV,
		NS:       0.9667,
		Sigma8:   0.8159,
	}
}

// Validate checks the parameter set for physical consistency.
func (p Params) Validate() error {
	if p.H <= 0 || p.H > 2 {
		return fmt.Errorf("cosmo: h = %v out of range", p.H)
	}
	if p.OmegaM <= 0 || p.OmegaM > 2 {
		return fmt.Errorf("cosmo: OmegaM = %v out of range", p.OmegaM)
	}
	if p.OmegaL < 0 {
		return fmt.Errorf("cosmo: OmegaL = %v negative", p.OmegaL)
	}
	if p.SumMNuEV < 0 {
		return fmt.Errorf("cosmo: SumMNu = %v negative", p.SumMNuEV)
	}
	if p.OmegaNu() >= p.OmegaM {
		return fmt.Errorf("cosmo: OmegaNu = %v exceeds OmegaM = %v", p.OmegaNu(), p.OmegaM)
	}
	return nil
}

// OmegaNu returns the present-day massive-neutrino density parameter.
func (p Params) OmegaNu() float64 {
	return units.OmegaNuFromMass(p.SumMNuEV, p.H)
}

// OmegaCB returns the CDM+baryon density parameter (the N-body component).
func (p Params) OmegaCB() float64 {
	return p.OmegaM - p.OmegaNu()
}

// FNu returns the neutrino mass fraction fν = Ων/Ωm.
func (p Params) FNu() float64 {
	return p.OmegaNu() / p.OmegaM
}

// E returns the dimensionless Hubble rate E(a) = H(a)/H0 for a flat
// matter+Λ model (massive neutrinos counted as matter at the redshifts the
// simulation covers, z ≤ 10, where the paper starts).
func (p Params) E(a float64) float64 {
	return math.Sqrt(p.OmegaM/(a*a*a) + p.OmegaL + (1-p.OmegaM-p.OmegaL)/(a*a))
}

// Hubble returns H(a) in internal units (km/s per h⁻¹Mpc).
func (p Params) Hubble(a float64) float64 {
	return units.HubbleInternal * p.E(a)
}

// MeanNuDensity returns the comoving mean neutrino mass density.
func (p Params) MeanNuDensity() float64 {
	return p.OmegaNu() * units.RhoCrit0()
}

// MeanCBDensity returns the comoving mean CDM+baryon density.
func (p Params) MeanCBDensity() float64 {
	return p.OmegaCB() * units.RhoCrit0()
}

// PoissonCoeff returns the factor multiplying the comoving overdensity
// (ρ_c − ρ̄_c) on the right-hand side of the Poisson equation at scale
// factor a: ∇²φ = (4πG/a)(ρ_c − ρ̄_c). This is the paper's eq. (2) with the
// proper density rewritten in terms of the comoving density.
func (p Params) PoissonCoeff(a float64) float64 {
	return 4 * math.Pi * units.G / a
}

// CosmicTime returns the cosmic time t(a) in internal units, from a
// high-accuracy Simpson integration of dt = da/(a H(a)).
func (p Params) CosmicTime(a float64) float64 {
	const n = 4096
	if a <= 0 {
		return 0
	}
	// Integrate from a small but nonzero floor; the integrand a⁻¹H⁻¹ ∝ a^{1/2}
	// in matter domination, so the omitted piece is negligible for a0 ≪ a.
	const a0 = 1e-8
	if a <= a0 {
		return 0
	}
	f := func(x float64) float64 { return 1 / (x * p.Hubble(x)) }
	return simpson(f, a0, a, n)
}

// ScaleFactorAt inverts CosmicTime by bisection: returns a such that
// CosmicTime(a) = t. Valid for t in (0, CosmicTime(aMax)].
func (p Params) ScaleFactorAt(t float64) float64 {
	lo, hi := 1e-8, 16.0
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if p.CosmicTime(mid) < t {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*hi {
			break
		}
	}
	return 0.5 * (lo + hi)
}

// GrowthFactor returns the linear growth factor D(a), normalised so that
// D(1) = 1, using D(a) ∝ H(a) ∫₀^a da' / (a' H(a'))³.
func (p Params) GrowthFactor(a float64) float64 {
	return p.growthRaw(a) / p.growthRaw(1)
}

func (p Params) growthRaw(a float64) float64 {
	const n = 2048
	const a0 = 1e-6
	if a <= a0 {
		return a // matter-dominated limit D ∝ a
	}
	f := func(x float64) float64 {
		xh := x * p.E(x)
		return 1 / (xh * xh * xh)
	}
	return p.E(a) * simpson(f, a0, a, n)
}

// GrowthRate returns f = dlnD/dlna at scale factor a (numerically).
func (p Params) GrowthRate(a float64) float64 {
	const eps = 1e-4
	d1 := math.Log(p.growthRaw(a * (1 + eps)))
	d0 := math.Log(p.growthRaw(a * (1 - eps)))
	return (d1 - d0) / (2 * eps)
}

// FreeStreamingWavenumber returns the neutrino free-streaming scale
// k_fs(a) = sqrt(3/2 Ωm(a)) a H(a) / v_th,proper(a) in h/Mpc.
func (p Params) FreeStreamingWavenumber(a float64) float64 {
	vth := units.NeutrinoThermalVelocity(p.SumMNuEV/3, a)
	omA := p.OmegaM / (a * a * a) / (p.E(a) * p.E(a))
	return math.Sqrt(1.5*omA) * a * p.Hubble(a) / vth
}

// simpson integrates f over [a,b] with n (even) panels.
func simpson(f func(float64) float64, a, b float64, n int) float64 {
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}
