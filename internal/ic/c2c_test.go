package ic

import (
	"fmt"
	"math"
	"testing"

	"vlasov6d/internal/cosmo"
	"vlasov6d/internal/fft"
)

// c2cSpectrum is the oracle's spectrum: white noise embedded in a complex
// field, the full complex forward transform, coloured with
// growth·sqrt(P(k)/V_cell) and the DC mode zeroed.
func c2cSpectrum(g *Generator, n int, a float64, comp Component) ([]complex128, *fft.FFT3) {
	w := g.whiteNoise(n)
	data := make([]complex128, len(w))
	for i, v := range w {
		data[i] = complex(v, 0)
	}
	f3, err := fft.NewFFT3(n, n, n)
	if err != nil {
		panic(err)
	}
	if err := f3.Forward(data); err != nil {
		panic(err)
	}
	vcell := math.Pow(g.Box/float64(n), 3)
	growth := g.Par.GrowthFactor(a)
	pk := g.PS.CB
	if comp == Neutrino {
		pk = g.PS.Nu
	}
	kf := 2 * math.Pi / g.Box
	idx := 0
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				mx, my, mz := fft.Freq(ix, n), fft.Freq(iy, n), fft.Freq(iz, n)
				k := kf * math.Sqrt(float64(mx*mx+my*my+mz*mz))
				if k == 0 {
					data[idx] = 0
				} else {
					data[idx] *= complex(growth*math.Sqrt(pk(k)/vcell), 0)
				}
				idx++
			}
		}
	}
	return data, f3
}

// c2cDelta is DeltaField through the full complex transform, the real part
// taken after the inverse.
func c2cDelta(g *Generator, n int, a float64, comp Component) []float64 {
	data, f3 := c2cSpectrum(g, n, a, comp)
	if err := f3.Inverse(data); err != nil {
		panic(err)
	}
	out := make([]float64, len(data))
	for i := range out {
		out[i] = real(data[i])
	}
	return out
}

// c2cDisplacement is displacementField through the full complex transform:
// Ψ̂_d = i·k_d·δ̂/k² on every mode, Nyquist included, and the real part of
// each inverse — which is what drops the Nyquist term of the derivative.
func c2cDisplacement(g *Generator, n int, a float64) [3][]float64 {
	base, f3 := c2cSpectrum(g, n, a, CDM)
	kf := 2 * math.Pi / g.Box
	var psi [3][]float64
	for d := 0; d < 3; d++ {
		comp := append([]complex128(nil), base...)
		idx := 0
		for ix := 0; ix < n; ix++ {
			for iy := 0; iy < n; iy++ {
				for iz := 0; iz < n; iz++ {
					m := [3]int{fft.Freq(ix, n), fft.Freq(iy, n), fft.Freq(iz, n)}
					k2 := 0.0
					for dd := 0; dd < 3; dd++ {
						kk := kf * float64(m[dd])
						k2 += kk * kk
					}
					if k2 == 0 {
						comp[idx] = 0
					} else {
						comp[idx] *= complex(0, kf*float64(m[d])/k2)
					}
					idx++
				}
			}
		}
		if err := f3.Inverse(comp); err != nil {
			panic(err)
		}
		psi[d] = make([]float64, len(comp))
		for i := range psi[d] {
			psi[d][i] = real(comp[i])
		}
	}
	return psi
}

// relL2 returns ‖got − want‖₂/‖want‖₂.
func relL2(got, want []float64) float64 {
	var num, den float64
	for i := range want {
		e := got[i] - want[i]
		num += e * e
		den += want[i] * want[i]
	}
	return math.Sqrt(num / den)
}

// TestFieldsMatchComplexTransform holds the half-spectrum fields to the full
// complex transform's on even, odd and Bluestein meshes: δ for both
// components and every axis of Ψ. On an even mesh the derivative along an
// axis must drop that axis's Nyquist mode, as the complex path's real part
// does; without it Ψ_x and Ψ_y are off by several per cent.
func TestFieldsMatchComplexTransform(t *testing.T) {
	g, err := NewGenerator(cosmo.Planck2015(0.4), 200, 41)
	if err != nil {
		t.Fatal(err)
	}
	const a, tol = 0.3, 1e-13
	for _, n := range []int{6, 7, 8, 12, 13} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			for _, comp := range []Component{CDM, Neutrino} {
				got, err := g.DeltaField(n, a, comp)
				if err != nil {
					t.Fatal(err)
				}
				if e := relL2(got, c2cDelta(g, n, a, comp)); !(e <= tol) {
					t.Errorf("component %d: δ differs from the complex transform's by %.3g", comp, e)
				}
			}
			psi, err := g.displacementField(n, a)
			if err != nil {
				t.Fatal(err)
			}
			want := c2cDisplacement(g, n, a)
			for d := range psi {
				if e := relL2(psi[d], want[d]); !(e <= tol) {
					t.Errorf("Ψ axis %d differs from the complex transform's by %.3g", d, e)
				}
			}
		})
	}
}
