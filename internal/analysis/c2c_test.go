package analysis

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"vlasov6d/internal/fft"
)

// c2cPowerSpectrum is PowerSpectrum through the full complex transform:
// every mode of the n³ spectrum counted once.
func c2cPowerSpectrum(rho []float64, n int, boxL float64, nbins int) (ks, pk, counts []float64) {
	mean := 0.0
	for _, v := range rho {
		mean += v
	}
	mean /= float64(len(rho))
	data := make([]complex128, len(rho))
	for i, v := range rho {
		data[i] = complex(v/mean-1, 0)
	}
	f3, err := fft.NewFFT3(n, n, n)
	if err != nil {
		panic(err)
	}
	if err := f3.Forward(data); err != nil {
		panic(err)
	}
	kf := 2 * math.Pi / boxL
	lkMin := math.Log(kf)
	dlk := (math.Log(kf*float64(n)/2) - lkMin) / float64(nbins)
	sum := make([]float64, nbins)
	cnt := make([]float64, nbins)
	norm := boxL * boxL * boxL / math.Pow(float64(n), 6)
	idx := 0
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				mx, my, mz := fft.Freq(ix, n), fft.Freq(iy, n), fft.Freq(iz, n)
				k := kf * math.Sqrt(float64(mx*mx+my*my+mz*mz))
				if k > 0 {
					if b := int((math.Log(k) - lkMin) / dlk); b >= 0 && b < nbins {
						p := cmplx.Abs(data[idx])
						sum[b] += p * p * norm
						cnt[b]++
					}
				}
				idx++
			}
		}
	}
	for b := range sum {
		if cnt[b] > 0 {
			ks = append(ks, math.Exp(lkMin+(float64(b)+0.5)*dlk))
			pk = append(pk, sum[b]/cnt[b])
			counts = append(counts, cnt[b])
		}
	}
	return ks, pk, counts
}

// TestPowerSpectrumMatchesComplexTransform holds the half-spectrum estimator
// to the full complex one on even, odd and Bluestein meshes: the same bins
// and mode counts to the bit, the same power to rounding.
func TestPowerSpectrumMatchesComplexTransform(t *testing.T) {
	const boxL, nbins = 150.0, 7
	for _, n := range []int{6, 7, 8, 13, 16} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			rho := make([]float64, n*n*n)
			for i := range rho {
				rho[i] = 1 + 0.3*rng.NormFloat64()
			}
			ks, pk, counts, err := PowerSpectrum(rho, n, boxL, nbins)
			if err != nil {
				t.Fatal(err)
			}
			wantK, wantP, wantC := c2cPowerSpectrum(rho, n, boxL, nbins)
			if !slices.Equal(ks, wantK) || !slices.Equal(counts, wantC) {
				t.Fatalf("bins %v counts %v, want %v and %v", ks, counts, wantK, wantC)
			}
			for b := range wantP {
				if e := math.Abs(pk[b]-wantP[b]) / wantP[b]; !(e <= 1e-13) {
					t.Errorf("bin %d: P = %.17g, want %.17g (rel %.3g)", b, pk[b], wantP[b], e)
				}
			}
		})
	}
}
