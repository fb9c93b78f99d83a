package cosmo

import "math"

// PowerSpectrum is a σ8-normalised linear matter power spectrum P(k) at z=0
// built from the BBKS (Bardeen–Bond–Kaiser–Szalay) transfer function with the
// Sugiyama shape-parameter correction — its one transfer function, so the
// initial conditions depend on no other — plus a massive-neutrino
// free-streaming suppression of the total-matter power. It provides separate spectra for the
// CDM+baryon component and the neutrino component, which the initial-condition
// generator uses to perturb the two species consistently.
type PowerSpectrum struct {
	par   Params
	amp   float64 // primordial amplitude fixed by σ8
	gamma float64 // Sugiyama shape parameter Γ
}

// NewPowerSpectrum constructs a σ8-normalised spectrum for the parameter set.
func NewPowerSpectrum(p Params) *PowerSpectrum {
	ps := &PowerSpectrum{par: p}
	// Sugiyama (1995) shape parameter.
	ps.gamma = p.OmegaM * p.H * math.Exp(-p.OmegaB*(1+math.Sqrt(2*p.H)/p.OmegaM))
	ps.amp = 1
	s2 := ps.sigmaR(8.0)
	ps.amp = p.Sigma8 * p.Sigma8 / (s2 * s2)
	return ps
}

// transferBBKS is the BBKS CDM transfer function for q = k/Γ (k in h/Mpc).
func transferBBKS(q float64) float64 {
	if q <= 0 {
		return 1
	}
	x := 2.34 * q
	t := math.Log(1+x) / x
	poly := 1 + 3.89*q + math.Pow(16.1*q, 2) + math.Pow(5.46*q, 3) + math.Pow(6.71*q, 4)
	return t * math.Pow(poly, -0.25)
}

// Total returns the z=0 linear total-matter power spectrum P(k) in
// (h⁻¹Mpc)³ for k in h/Mpc, including the neutrino suppression factor
// ΔP/P ≈ −8fν on scales below the free-streaming length (the collisionless
// damping signature the paper measures).
func (ps *PowerSpectrum) Total(k float64) float64 {
	if k <= 0 {
		return 0
	}
	t := transferBBKS(k / ps.gamma)
	p := ps.amp * math.Pow(k, ps.par.NS) * t * t
	return p * ps.nuSuppression(k)
}

// nuSuppression interpolates between 1 on large scales and (1−8fν)… clamped
// at a floor, on small scales, across the z=0 free-streaming wavenumber.
func (ps *PowerSpectrum) nuSuppression(k float64) float64 {
	fnu := ps.par.FNu()
	if fnu <= 0 {
		return 1
	}
	sup := 1 - 8*fnu
	if sup < 0.05 {
		sup = 0.05
	}
	kfs := ps.par.FreeStreamingWavenumber(1)
	x := k / kfs
	w := x * x / (1 + x*x) // →0 for k≪kfs, →1 for k≫kfs
	return 1 + (sup-1)*w
}

// CB returns the z=0 CDM+baryon power spectrum. Relative to the total it is
// slightly enhanced because the neutrino component is smooth below the
// free-streaming scale: δ_m = (1−fν)δ_cb + fν δν.
func (ps *PowerSpectrum) CB(k float64) float64 {
	fnu := ps.par.FNu()
	r := ps.nuDensityRatio(k) // δν/δ_cb
	den := (1 - fnu) + fnu*r
	return ps.Total(k) / (den * den)
}

// Nu returns the z=0 linear neutrino power spectrum Pν(k) = r²(k)·P_cb(k).
func (ps *PowerSpectrum) Nu(k float64) float64 {
	r := ps.nuDensityRatio(k)
	return r * r * ps.CB(k)
}

// nuDensityRatio models the ratio δν/δ_cb: unity above the free-streaming
// length and suppressed as (k/kfs)⁻² below it (the standard free-streaming
// solution of the linearised Vlasov equation).
func (ps *PowerSpectrum) nuDensityRatio(k float64) float64 {
	if ps.par.FNu() <= 0 {
		return 1
	}
	kfs := ps.par.FreeStreamingWavenumber(1)
	x := k / kfs
	return 1 / (1 + x*x)
}

// sigmaR returns the RMS linear density fluctuation in spheres of radius R
// (h⁻¹Mpc) at z=0.
func (ps *PowerSpectrum) sigmaR(r float64) float64 {
	// σ²(R) = 1/(2π²) ∫ k² P(k) W²(kR) dk with top-hat W.
	f := func(lnk float64) float64 {
		k := math.Exp(lnk)
		w := topHat(k * r)
		return k * k * k * ps.Total(k) * w * w
	}
	integral := simpson(f, math.Log(1e-5), math.Log(1e3), 4096)
	return math.Sqrt(integral / (2 * math.Pi * math.Pi))
}

func topHat(x float64) float64 {
	if x < 1e-4 {
		return 1 - x*x/10
	}
	return 3 * (math.Sin(x) - x*math.Cos(x)) / (x * x * x)
}
