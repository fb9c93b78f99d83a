package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGInternalValue(t *testing.T) {
	// With Mpc lengths G = 43.0071 (the GADGET value 43007.1 is for kpc).
	if math.Abs(G-43.0071)/43.0071 > 2e-3 {
		t.Fatalf("G = %v, want ≈ 43.0071", G)
	}
}

func TestRhoCrit0(t *testing.T) {
	// ρ_crit = 3H₀²/8πG ≈ 27.75 ×10¹⁰ h²M_sun/(Mpc/h)³.
	got := RhoCrit0()
	if math.Abs(got-27.75)/27.75 > 5e-3 {
		t.Fatalf("RhoCrit0 = %v, want ≈ 27.75", got)
	}
}

func TestNeutrinoThermalVelocity(t *testing.T) {
	// Standard result: v_th ≈ 158 (1+z) (1 eV/mν) km/s within a few %.
	v := NeutrinoThermalVelocity(1.0, 1.0)
	if math.Abs(v-158)/158 > 0.05 {
		t.Fatalf("v_th(1eV, a=1) = %v km/s, want ≈ 158", v)
	}
	// Scales like 1/a and 1/m.
	v2 := NeutrinoThermalVelocity(1.0, 0.5)
	if math.Abs(v2-2*v)/v > 1e-12 {
		t.Fatalf("v_th should scale as 1/a: %v vs %v", v2, 2*v)
	}
	v3 := NeutrinoThermalVelocity(2.0, 1.0)
	if math.Abs(v3-v/2)/v > 1e-12 {
		t.Fatalf("v_th should scale as 1/m: %v vs %v", v3, v/2)
	}
}

func TestOmegaNuFromMass(t *testing.T) {
	// Mν = 0.4 eV, h = 0.7: Ων ≈ 0.4/(93.14·0.49) ≈ 0.00876.
	got := OmegaNuFromMass(0.4, 0.7)
	want := 0.4 / (93.14 * 0.49)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("OmegaNu = %v, want %v", got, want)
	}
	if got < 1e-3 || got > 1e-2 {
		t.Fatalf("OmegaNu out of the paper's 10⁻³–10⁻² range: %v", got)
	}
}

func TestFermiDiracProperties(t *testing.T) {
	if got := FermiDirac(0); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("FD(0) = %v, want 0.5", got)
	}
	// Monotone decreasing and bounded in (0, 1/2].
	f := func(y float64) bool {
		y = math.Abs(y)
		a, b := FermiDirac(y), FermiDirac(y+1)
		return a >= b && a <= 0.5 && b >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFermiDiracNormIntegral(t *testing.T) {
	// Trapezoid integration of y²/(e^y+1) should match 3ζ(3)/2.
	const n = 200000
	const ymax = 60.0
	h := ymax / n
	sum := 0.0
	for i := 1; i < n; i++ {
		y := float64(i) * h
		sum += y * y * FermiDirac(y)
	}
	sum *= h
	const want = 1.8030853547393952 // 3ζ(3)/2
	if math.Abs(sum-want) > 1e-6 {
		t.Fatalf("∫y²FD = %v, want %v", sum, want)
	}
}
