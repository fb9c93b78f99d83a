// Package analysis provides the measurement tools behind the paper's
// science figures: binned matter power spectra, projected density/velocity/
// dispersion maps (Figs. 4, 6, 8), local velocity-distribution extraction
// (Fig. 5), particle-field moments with their shot noise, and writers for
// portable greymap images and CSV series.
package analysis

import (
	"fmt"
	"io"
	"math"
	"math/cmplx"

	"vlasov6d/internal/fft"
	"vlasov6d/internal/nbody"
	"vlasov6d/internal/phase"
)

// PowerSpectrum bins the 3D power spectrum of the density field rho
// (row-major n³ mesh over a cubic box of side boxL) into nbins logarithmic
// shells between the fundamental and Nyquist wavenumbers. It returns the
// bin-centre k values (h/Mpc), P(k) ((h⁻¹Mpc)³) shell averages following
// the standard estimator P(k) = V·⟨|δ̂_k|²⟩/N⁶, and the mode count per
// shell.
func PowerSpectrum(rho []float64, n int, boxL float64, nbins int) (ks, pk, counts []float64, err error) {
	if n < 2 || len(rho) != n*n*n {
		return nil, nil, nil, fmt.Errorf("analysis: bad mesh length %d for n=%d", len(rho), n)
	}
	if nbins < 1 {
		return nil, nil, nil, fmt.Errorf("analysis: nbins %d", nbins)
	}
	mean := 0.0
	for _, v := range rho {
		mean += v
	}
	mean /= float64(len(rho))
	if mean == 0 {
		return nil, nil, nil, fmt.Errorf("analysis: zero mean density")
	}
	delta := make([]float64, len(rho))
	for i, v := range rho {
		delta[i] = v/mean - 1
	}
	f3, err := fft.NewFFT3(n, n, n)
	if err != nil {
		return nil, nil, nil, err
	}
	data := make([]complex128, f3.HalfLen())
	if err := f3.ForwardReal(delta, data); err != nil {
		return nil, nil, nil, err
	}
	kf := 2 * math.Pi / boxL
	kNyq := kf * float64(n) / 2
	lkMin, lkMax := math.Log(kf), math.Log(kNyq)
	dlk := (lkMax - lkMin) / float64(nbins)
	sum := make([]float64, nbins)
	cnt := make([]float64, nbins)
	vol := boxL * boxL * boxL
	norm := vol / math.Pow(float64(n), 6)
	idx := 0
	for ix := 0; ix < n; ix++ {
		mx := fft.Freq(ix, n)
		for iy := 0; iy < n; iy++ {
			my := fft.Freq(iy, n)
			for mz := 0; mz <= n/2; mz++ {
				// A mode with 0 < kz < n/2 stands for its conjugate at −kz too.
				w := 2.0
				if mz == 0 || 2*mz == n {
					w = 1
				}
				k := kf * math.Sqrt(float64(mx*mx+my*my+mz*mz))
				if k > 0 {
					b := int((math.Log(k) - lkMin) / dlk)
					if b >= 0 && b < nbins {
						p := cmplx.Abs(data[idx])
						sum[b] += w * p * p * norm
						cnt[b] += w
					}
				}
				idx++
			}
		}
	}
	for b := 0; b < nbins; b++ {
		kc := math.Exp(lkMin + (float64(b)+0.5)*dlk)
		if cnt[b] > 0 {
			ks = append(ks, kc)
			pk = append(pk, sum[b]/cnt[b])
			counts = append(counts, cnt[b])
		}
	}
	return ks, pk, counts, nil
}

// Project collapses a 3D field (shape n, row-major) along axis into a 2D
// map (mean along the line of sight), returning the map and its dimensions.
func Project(field []float64, n [3]int, axis int) ([]float64, int, int, error) {
	if len(field) != n[0]*n[1]*n[2] {
		return nil, 0, 0, fmt.Errorf("analysis: field length %d != %v", len(field), n)
	}
	if axis < 0 || axis > 2 {
		return nil, 0, 0, fmt.Errorf("analysis: bad axis %d", axis)
	}
	var w, h, depth int
	switch axis {
	case 0:
		w, h, depth = n[1], n[2], n[0]
	case 1:
		w, h, depth = n[0], n[2], n[1]
	default:
		w, h, depth = n[0], n[1], n[2]
	}
	out := make([]float64, w*h)
	at := func(ix, iy, iz int) float64 { return field[(ix*n[1]+iy)*n[2]+iz] }
	for a := 0; a < w; a++ {
		for b := 0; b < h; b++ {
			s := 0.0
			for d := 0; d < depth; d++ {
				switch axis {
				case 0:
					s += at(d, a, b)
				case 1:
					s += at(a, d, b)
				default:
					s += at(a, b, d)
				}
			}
			out[a*h+b] = s / float64(depth)
		}
	}
	return out, w, h, nil
}

// FieldStats summarises a field.
type FieldStats struct {
	Mean, Min, Max, RMSContrast float64
}

// Stats computes mean, extrema and the RMS density contrast of a field.
func Stats(field []float64) FieldStats {
	if len(field) == 0 {
		return FieldStats{}
	}
	st := FieldStats{Min: field[0], Max: field[0]}
	for _, v := range field {
		st.Mean += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean /= float64(len(field))
	if st.Mean != 0 {
		s := 0.0
		for _, v := range field {
			d := v/st.Mean - 1
			s += d * d
		}
		st.RMSContrast = math.Sqrt(s / float64(len(field)))
	}
	return st
}

// WritePGM renders a 2D map (w×h, row-major) as an 8-bit PGM image.
// When logScale is true values are log10-compressed above floor·max.
func WritePGM(w io.Writer, m []float64, width, height int, logScale bool) error {
	if len(m) != width*height {
		return fmt.Errorf("analysis: map length %d != %d×%d", len(m), width, height)
	}
	lo, hi := m[0], m[0]
	vals := make([]float64, len(m))
	copy(vals, m)
	if logScale {
		mx := 0.0
		for _, v := range m {
			if v > mx {
				mx = v
			}
		}
		floor := mx * 1e-4
		if floor <= 0 {
			floor = 1e-30
		}
		for i, v := range vals {
			if v < floor {
				v = floor
			}
			vals[i] = math.Log10(v)
		}
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	if _, err := fmt.Fprintf(w, "P2\n%d %d\n255\n", width, height); err != nil {
		return err
	}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			v := int(255 * (vals[y*width+x] - lo) / (hi - lo))
			if x > 0 {
				if _, err := fmt.Fprint(w, " "); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%d", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes column series with a header row.
func WriteCSV(w io.Writer, header []string, cols ...[]float64) error {
	if len(cols) == 0 || len(header) != len(cols) {
		return fmt.Errorf("analysis: header/column mismatch")
	}
	n := len(cols[0])
	for _, c := range cols {
		if len(c) != n {
			return fmt.Errorf("analysis: ragged columns")
		}
	}
	for i, h := range header {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprint(w, h)
	}
	fmt.Fprintln(w)
	for r := 0; r < n; r++ {
		for i := range cols {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintf(w, "%.8g", cols[i][r])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// VelocityPlane extracts the Fig. 5 data: the 2D (ux, uy) distribution at a
// single spatial cell, summed over uz. Returns the plane (NU0×NU1,
// row-major) and the velocity coordinates.
func VelocityPlane(g *phase.Grid, ix, iy, iz int) (plane []float64, ux, uy []float64, err error) {
	if ix < 0 || ix >= g.NX || iy < 0 || iy >= g.NY || iz < 0 || iz >= g.NZ {
		return nil, nil, nil, fmt.Errorf("analysis: cell (%d,%d,%d) out of range", ix, iy, iz)
	}
	cube := g.Cube(ix, iy, iz)
	nu := g.NU
	plane = make([]float64, nu[0]*nu[1])
	for jx := 0; jx < nu[0]; jx++ {
		for jy := 0; jy < nu[1]; jy++ {
			s := 0.0
			base := (jx*nu[1] + jy) * nu[2]
			for jz := 0; jz < nu[2]; jz++ {
				s += float64(cube[base+jz])
			}
			plane[jx*nu[1]+jy] = s * g.DU(2)
		}
	}
	ux = make([]float64, nu[0])
	for j := range ux {
		ux[j] = g.U(0, j)
	}
	uy = make([]float64, nu[1])
	for j := range uy {
		uy[j] = g.U(1, j)
	}
	return plane, ux, uy, nil
}

// ParticlesInCell returns the (ux, uy) velocities of the particles whose
// position falls inside the spatial cell (ix, iy, iz) of a mesh with shape
// n — the open circles of Fig. 5.
func ParticlesInCell(p *nbody.Particles, n [3]int, ix, iy, iz int) (ux, uy []float64) {
	var h [3]float64
	for d := 0; d < 3; d++ {
		h[d] = p.Box[d] / float64(n[d])
	}
	for i := 0; i < p.N; i++ {
		cx := int(p.Pos[0][i] / h[0])
		cy := int(p.Pos[1][i] / h[1])
		cz := int(p.Pos[2][i] / h[2])
		if cx == ix && cy == iy && cz == iz {
			ux = append(ux, p.Vel[0][i])
			uy = append(uy, p.Vel[1][i])
		}
	}
	return ux, uy
}

// ParticleMoments bins particles onto an n-shaped mesh with NGP assignment
// and returns the density, mean-velocity magnitude and 1D velocity
// dispersion per cell — the N-body columns of Fig. 6, including their shot
// noise.
type ParticleMoments struct {
	N       [3]int
	Density []float64
	MeanV   []float64 // |⟨u⟩| per cell
	Sigma   []float64
	Count   []int
}

// MomentsFromParticles computes ParticleMoments.
func MomentsFromParticles(p *nbody.Particles, n [3]int) (*ParticleMoments, error) {
	size := n[0] * n[1] * n[2]
	if size <= 0 {
		return nil, fmt.Errorf("analysis: bad mesh %v", n)
	}
	var h [3]float64
	for d := 0; d < 3; d++ {
		h[d] = p.Box[d] / float64(n[d])
	}
	m := &ParticleMoments{
		N:       n,
		Density: make([]float64, size),
		MeanV:   make([]float64, size),
		Sigma:   make([]float64, size),
		Count:   make([]int, size),
	}
	sum := make([][3]float64, size)
	sum2 := make([][3]float64, size)
	cellVol := h[0] * h[1] * h[2]
	for i := 0; i < p.N; i++ {
		cx := clampIdx(int(p.Pos[0][i]/h[0]), n[0])
		cy := clampIdx(int(p.Pos[1][i]/h[1]), n[1])
		cz := clampIdx(int(p.Pos[2][i]/h[2]), n[2])
		c := (cx*n[1]+cy)*n[2] + cz
		m.Count[c]++
		m.Density[c] += p.Mass / cellVol
		for d := 0; d < 3; d++ {
			v := p.Vel[d][i]
			sum[c][d] += v
			sum2[c][d] += v * v
		}
	}
	for c := 0; c < size; c++ {
		if m.Count[c] == 0 {
			continue
		}
		cnt := float64(m.Count[c])
		var mv, tr float64
		for d := 0; d < 3; d++ {
			mean := sum[c][d] / cnt
			mv += mean * mean
			varD := sum2[c][d]/cnt - mean*mean
			if varD > 0 {
				tr += varD
			}
		}
		m.MeanV[c] = math.Sqrt(mv)
		m.Sigma[c] = math.Sqrt(tr / 3)
	}
	return m, nil
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// NoiseComparison quantifies Fig. 6's point: the cell-to-cell fluctuation
// of each field. For the velocity-dispersion field of a hot component the
// Vlasov value is smooth while the particle estimate fluctuates with
// relative error ~1/sqrt(2·N_cell).
type NoiseComparison struct {
	VlasovRMS   float64 // RMS fractional fluctuation of the Vlasov field
	ParticleRMS float64 // same for the particle field
}

// CompareNoise computes fractional RMS fluctuations of two fields about
// their means.
func CompareNoise(vlasov, particles []float64) NoiseComparison {
	return NoiseComparison{
		VlasovRMS:   Stats(vlasov).RMSContrast,
		ParticleRMS: Stats(particles).RMSContrast,
	}
}
