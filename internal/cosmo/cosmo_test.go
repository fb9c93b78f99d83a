package cosmo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	p := Planck2015(0.4)
	if err := p.Validate(); err != nil {
		t.Fatalf("fiducial params invalid: %v", err)
	}
	bad := p
	bad.H = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative h accepted")
	}
	bad = p
	bad.SumMNuEV = 1e5
	if err := bad.Validate(); err == nil {
		t.Fatal("OmegaNu > OmegaM accepted")
	}
}

func TestEOfA(t *testing.T) {
	p := Planck2015(0.4)
	if got := p.E(1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("E(1) = %v, want 1", got)
	}
	// Matter-dominated limit: E ≈ sqrt(Ωm) a^{-3/2}.
	a := 0.01
	want := math.Sqrt(p.OmegaM) * math.Pow(a, -1.5)
	if got := p.E(a); math.Abs(got-want)/want > 0.01 {
		t.Fatalf("E(%v) = %v, want ≈ %v", a, got, want)
	}
}

func TestOmegaNuFraction(t *testing.T) {
	p := Planck2015(0.4)
	fnu := p.FNu()
	if fnu < 1e-3 || fnu > 1e-1 {
		t.Fatalf("fν = %v outside plausible range", fnu)
	}
	if math.Abs(p.OmegaCB()+p.OmegaNu()-p.OmegaM) > 1e-14 {
		t.Fatal("OmegaCB + OmegaNu != OmegaM")
	}
}

func TestCosmicTimeAge(t *testing.T) {
	p := Planck2015(0.0)
	// Age of a Planck-like universe ≈ 13.8 Gyr ≈ 13.8/9.778*h in internal
	// units: t_internal = t_Gyr/(9.778/h)... internal time unit is
	// h⁻¹Mpc/(km/s) = 977.79 h⁻¹ Gyr... so age ≈ 13.8 Gyr / (977.79/h Gyr)
	// = 13.8·h/977.79 ≈ 0.00953 for h=0.6774.
	age := p.CosmicTime(1)
	want := 13.8 * p.H / 977.79
	if math.Abs(age-want)/want > 0.02 {
		t.Fatalf("age = %v internal units, want ≈ %v", age, want)
	}
}

// TestTimeIntegralsMatchClosedForms holds the ln a rule behind CosmicTime
// and StepFactors to the Einstein–de Sitter closed forms, t = 2a^{3/2}/(3H₀)
// and ∫dt/a² = 2a^{-1/2}/H₀ up to a constant, and in flat ΛCDM to the same
// rule on 2¹⁶ panels. Measured: CosmicTime ≤ 1.2e-11 off in both, the kick
// factors ≤ 1.9e-12 and the drift factor ≤ 2.2e-12.
func TestTimeIntegralsMatchClosedForms(t *testing.T) {
	const dlna = 0.02 // the hybrid simulation's cap on a step
	check := func(what string, a, got, want, tol float64) {
		t.Helper()
		if e := math.Abs(got-want) / math.Abs(want); e > tol {
			t.Errorf("%s from a = %v off by %.3g", what, a, e)
		}
	}
	eds := Params{H: 0.7, OmegaM: 1}
	h0 := eds.Hubble(1)
	tEdS := func(a float64) float64 { return 2 * math.Pow(a, 1.5) / (3 * h0) }
	p := Planck2015(0.4)
	const n = 1 << 16
	for _, a := range []float64{0.01, 1.0 / 11, 0.5, 1} {
		aMid, a1 := a*math.Exp(dlna/2), a*math.Exp(dlna)
		check("EdS CosmicTime", a, eds.CosmicTime(a), tEdS(a), 1e-9)
		kick1, kick2, drift := eds.StepFactors(a, dlna)
		check("EdS first kick", a, kick1, tEdS(aMid)-tEdS(a), 1e-11)
		check("EdS second kick", a, kick2, tEdS(a1)-tEdS(aMid), 1e-11)
		check("EdS drift", a, drift, 2/h0*(1/math.Sqrt(a)-1/math.Sqrt(a1)), 1e-11)

		ref := 2/(3*p.Hubble(1e-8)) + p.timeIntegral(0, 1e-8, math.Log(a/1e-8), n)
		check("ΛCDM CosmicTime", a, p.CosmicTime(a), ref, 1e-10)
		kick1, kick2, drift = p.StepFactors(a, dlna)
		check("ΛCDM first kick", a, kick1, p.timeIntegral(0, a, dlna/2, n), 1e-11)
		check("ΛCDM second kick", a, kick2, p.timeIntegral(0, aMid, dlna/2, n), 1e-11)
		check("ΛCDM drift", a, drift, p.timeIntegral(2, a, dlna, n), 1e-11)
	}
}

func TestGrowthFactor(t *testing.T) {
	p := Planck2015(0.0)
	if got := p.GrowthFactor(1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("D(1) = %v, want 1", got)
	}
	// Matter domination: D ∝ a.
	d1, d2 := p.GrowthFactor(0.01), p.GrowthFactor(0.02)
	if math.Abs(d2/d1-2) > 0.01 {
		t.Fatalf("growth not ∝ a in matter era: D(0.02)/D(0.01) = %v", d2/d1)
	}
	// Λ suppresses growth: D(1) < a·D'(matter extrapolation), i.e.
	// D(0.5) > 0.5 for ΛCDM.
	if d := p.GrowthFactor(0.5); d <= 0.5 {
		t.Fatalf("D(0.5) = %v, want > 0.5 under Λ suppression of late growth", d)
	}
}

func TestGrowthRate(t *testing.T) {
	p := Planck2015(0.0)
	// Matter domination: f → 1.
	if f := p.GrowthRate(0.01); math.Abs(f-1) > 0.01 {
		t.Fatalf("f(0.01) = %v, want ≈ 1", f)
	}
	// Today: f ≈ Ωm^0.55 ≈ 0.52.
	f0 := p.GrowthRate(1)
	want := math.Pow(p.OmegaM, 0.55)
	if math.Abs(f0-want) > 0.03 {
		t.Fatalf("f(1) = %v, want ≈ %v", f0, want)
	}
}

func TestPoissonCoeffScaling(t *testing.T) {
	p := Planck2015(0.4)
	c1, c2 := p.PoissonCoeff(1), p.PoissonCoeff(0.5)
	if math.Abs(c2/c1-2) > 1e-12 {
		t.Fatalf("PoissonCoeff should scale as 1/a: ratio %v", c2/c1)
	}
}

func TestFreeStreamingWavenumber(t *testing.T) {
	p := Planck2015(0.4)
	kfs := p.FreeStreamingWavenumber(1)
	// For Mν=0.4 eV the z=0 free-streaming scale is of order 0.1–1 h/Mpc.
	if kfs < 0.05 || kfs > 5 {
		t.Fatalf("k_fs = %v h/Mpc implausible", kfs)
	}
	// Heavier ν → shorter free-streaming length → larger k_fs.
	p2 := Planck2015(0.8)
	if p2.FreeStreamingWavenumber(1) <= kfs {
		t.Fatal("k_fs should increase with neutrino mass")
	}
}

func TestPowerSpectrumNormalisation(t *testing.T) {
	p := Planck2015(0.0)
	ps := NewPowerSpectrum(p)
	got := ps.sigmaR(8)
	if math.Abs(got-p.Sigma8)/p.Sigma8 > 1e-6 {
		t.Fatalf("σ8 = %v, want %v", got, p.Sigma8)
	}
}

func TestPowerSpectrumShape(t *testing.T) {
	ps := NewPowerSpectrum(Planck2015(0.0))
	// P(k) rises as k^ns at low k and falls at high k.
	if ps.Total(1e-4) >= ps.Total(2e-2) {
		t.Fatal("P(k) should rise toward the turnover")
	}
	if ps.Total(0.1) <= ps.Total(10) {
		t.Fatal("P(k) should fall past the turnover")
	}
}

func TestNeutrinoSuppression(t *testing.T) {
	p0 := NewPowerSpectrum(Planck2015(0.0))
	p4 := NewPowerSpectrum(Planck2015(0.4))
	// At small scales (k ≫ k_fs) the massive-ν spectrum is suppressed
	// relative to its own large-scale amplitude more than the massless case.
	// Compare the small/large-scale ratio of the two models.
	kLo, kHi := 0.01, 5.0
	r0 := p0.Total(kHi) / p0.Total(kLo)
	r4 := p4.Total(kHi) / p4.Total(kLo)
	if r4 >= r0 {
		t.Fatalf("massive-ν small-scale power not suppressed: %v vs %v", r4, r0)
	}
}

func TestNuComponentSuppressed(t *testing.T) {
	ps := NewPowerSpectrum(Planck2015(0.4))
	k := 5 * ps.par.FreeStreamingWavenumber(1)
	if ps.Nu(k) >= ps.CB(k) {
		t.Fatal("neutrino power should be below CDM power beyond k_fs")
	}
	kbig := 0.01 * ps.par.FreeStreamingWavenumber(1)
	rr := ps.Nu(kbig) / ps.CB(kbig)
	if math.Abs(rr-1) > 0.01 {
		t.Fatalf("ν traces CDM on large scales: ratio = %v", rr)
	}
}

func TestPowerPositivityProperty(t *testing.T) {
	ps := NewPowerSpectrum(Planck2015(0.4))
	f := func(lk float64) bool {
		k := math.Pow(10, -4+math.Mod(math.Abs(lk), 7)) // k in [1e-4, 1e3)
		return ps.Total(k) >= 0 && ps.CB(k) >= 0 && ps.Nu(k) >= 0 &&
			ps.Nu(k) <= ps.CB(k)*1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
