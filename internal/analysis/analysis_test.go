package analysis

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"vlasov6d/internal/nbody"
	"vlasov6d/internal/phase"
)

func TestPowerSpectrumSingleMode(t *testing.T) {
	n := 32
	boxL := 100.0
	rho := make([]float64, n*n*n)
	kMode := 4
	amp := 0.1
	idx := 0
	for ix := 0; ix < n; ix++ {
		x := float64(ix) / float64(n)
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				rho[idx] = 1 + amp*math.Cos(2*math.Pi*float64(kMode)*x)
				idx++
			}
		}
	}
	ks, pk, counts, err := PowerSpectrum(rho, n, boxL, 12)
	if err != nil {
		t.Fatal(err)
	}
	// The signal lives at k = kMode·2π/L with P = V·amp²/4 (cosine splits
	// into two modes of amplitude amp/2 each; estimator averages
	// |δ_k|²=amp²/4 over the shell... both conjugate modes fall in the same
	// |k| shell).
	kTarget := 2 * math.Pi * float64(kMode) / boxL
	best, bestP := -1, 0.0
	for i, k := range ks {
		if pk[i] > bestP {
			best, bestP = i, pk[i]
		}
		_ = k
	}
	if best < 0 {
		t.Fatal("no bins")
	}
	if math.Abs(math.Log(ks[best]/kTarget)) > 0.3 {
		t.Fatalf("peak at k=%v, want %v", ks[best], kTarget)
	}
	// All other bins should be ~0.
	for i := range ks {
		if i != best && pk[i] > 1e-6*bestP {
			t.Fatalf("leakage at bin %d: %v vs peak %v", i, pk[i], bestP)
		}
	}
	// Amplitude: the shell holds the two conjugate modes of power
	// V·(amp/2)² each, diluted over the shell's mode count:
	// P_shell·count = 2·V·amp²/4.
	want := 2 * boxL * boxL * boxL * amp * amp / 4
	got := bestP * counts[best]
	if math.Abs(got-want)/want > 1e-6 {
		t.Fatalf("shell-integrated power %v, want %v", got, want)
	}
}

func TestPowerSpectrumValidation(t *testing.T) {
	if _, _, _, err := PowerSpectrum(make([]float64, 10), 4, 1, 4); err == nil {
		t.Fatal("bad length accepted")
	}
	if _, _, _, err := PowerSpectrum(make([]float64, 64), 4, 1, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
	if _, _, _, err := PowerSpectrum(make([]float64, 64), 4, 1, 4); err == nil {
		t.Fatal("zero-mean field accepted")
	}
}

func TestProjectMeanPreserved(t *testing.T) {
	n := [3]int{4, 6, 8}
	field := make([]float64, 4*6*8)
	rng := rand.New(rand.NewSource(1))
	mean := 0.0
	for i := range field {
		field[i] = rng.Float64()
		mean += field[i]
	}
	mean /= float64(len(field))
	for axis := 0; axis < 3; axis++ {
		m, w, h, err := Project(field, n, axis)
		if err != nil {
			t.Fatal(err)
		}
		if w*h != len(m) {
			t.Fatalf("axis %d: dims %dx%d vs len %d", axis, w, h, len(m))
		}
		pm := 0.0
		for _, v := range m {
			pm += v
		}
		pm /= float64(len(m))
		if math.Abs(pm-mean) > 1e-12 {
			t.Fatalf("axis %d: projection mean %v != %v", axis, pm, mean)
		}
	}
	if _, _, _, err := Project(field, n, 3); err == nil {
		t.Fatal("bad axis accepted")
	}
}

func TestStats(t *testing.T) {
	st := Stats([]float64{1, 2, 3})
	if st.Mean != 2 || st.Min != 1 || st.Max != 3 {
		t.Fatalf("stats %+v", st)
	}
	want := math.Sqrt((0.25 + 0 + 0.25) / 3)
	if math.Abs(st.RMSContrast-want) > 1e-12 {
		t.Fatalf("contrast %v, want %v", st.RMSContrast, want)
	}
	if s := Stats(nil); s.Mean != 0 {
		t.Fatal("empty stats")
	}
}

func TestWritePGM(t *testing.T) {
	var sb strings.Builder
	m := []float64{0, 1, 2, 3, 4, 5}
	if err := WritePGM(&sb, m, 3, 2, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "P2\n3 2\n255\n") {
		t.Fatalf("bad header:\n%s", out)
	}
	if !strings.Contains(out, "255") || !strings.Contains(out, "0") {
		t.Fatal("range not normalised")
	}
	if err := WritePGM(&sb, m, 2, 2, false); err == nil {
		t.Fatal("bad dims accepted")
	}
	// Log scale must not blow up on zeros.
	var sb2 strings.Builder
	if err := WritePGM(&sb2, []float64{0, 0, 1, 10}, 2, 2, true); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, []string{"k", "pk"}, []float64{1, 2}, []float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "k,pk\n1,10\n2,20\n") {
		t.Fatalf("csv:\n%s", out)
	}
	if err := WriteCSV(&sb, []string{"a"}, []float64{1}, []float64{2}); err == nil {
		t.Fatal("header mismatch accepted")
	}
	if err := WriteCSV(&sb, []string{"a", "b"}, []float64{1}, []float64{2, 3}); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

func TestVelocityPlane(t *testing.T) {
	g, err := phase.New(2, 2, 2, [3]int{6, 6, 6}, [3]float64{10, 10, 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	g.Fill(func(x, y, z, ux, uy, uz float64) float64 {
		return math.Exp(-(ux*ux + uy*uy + uz*uz))
	})
	plane, ux, uy, err := VelocityPlane(g, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plane) != 36 || len(ux) != 6 || len(uy) != 6 {
		t.Fatal("bad shapes")
	}
	// Plane must integrate f over uz: peak at the central velocity bins.
	maxV, maxI := 0.0, 0
	for i, v := range plane {
		if v > maxV {
			maxV, maxI = v, i
		}
	}
	jx, jy := maxI/6, maxI%6
	if jx < 2 || jx > 3 || jy < 2 || jy > 3 {
		t.Fatalf("peak at (%d,%d), want centre", jx, jy)
	}
	if _, _, _, err := VelocityPlane(g, 5, 0, 0); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
}

func TestParticlesInCell(t *testing.T) {
	p, _ := nbody.NewParticles(3, 1, [3]float64{10, 10, 10})
	p.Pos[0][0], p.Pos[1][0], p.Pos[2][0] = 1, 1, 1 // cell (0,0,0) at n=5
	p.Vel[0][0] = 42
	p.Pos[0][1], p.Pos[1][1], p.Pos[2][1] = 9, 9, 9
	p.Pos[0][2], p.Pos[1][2], p.Pos[2][2] = 1.5, 0.5, 1.9
	p.Vel[0][2] = 7
	ux, uy := ParticlesInCell(p, [3]int{5, 5, 5}, 0, 0, 0)
	if len(ux) != 2 || len(uy) != 2 {
		t.Fatalf("found %d particles, want 2", len(ux))
	}
	if ux[0] != 42 || ux[1] != 7 {
		t.Fatalf("velocities %v", ux)
	}
}

func TestMomentsFromParticles(t *testing.T) {
	p, _ := nbody.NewParticles(1000, 2, [3]float64{10, 10, 10})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < p.N; i++ {
		for d := 0; d < 3; d++ {
			p.Pos[d][i] = rng.Float64() * 10
			p.Vel[d][i] = 100 + rng.NormFloat64()*50
		}
	}
	m, err := MomentsFromParticles(p, [3]int{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Mass conservation.
	cellVol := 2.5 * 2.5 * 2.5
	tot := 0.0
	for _, v := range m.Density {
		tot += v * cellVol
	}
	if math.Abs(tot-2000)/2000 > 1e-12 {
		t.Fatalf("mass %v, want 2000", tot)
	}
	// Mean velocity magnitude ≈ sqrt(3)·100, dispersion ≈ 50.
	occ := 0
	for c := range m.Count {
		if m.Count[c] < 5 {
			continue
		}
		occ++
		if math.Abs(m.MeanV[c]-math.Sqrt(3)*100) > 60 {
			t.Fatalf("cell %d meanV %v", c, m.MeanV[c])
		}
		if m.Sigma[c] < 15 || m.Sigma[c] > 90 {
			t.Fatalf("cell %d sigma %v", c, m.Sigma[c])
		}
	}
	if occ == 0 {
		t.Fatal("no occupied cells")
	}
	if _, err := MomentsFromParticles(p, [3]int{0, 4, 4}); err == nil {
		t.Fatal("bad mesh accepted")
	}
}

func TestShotNoiseScaling(t *testing.T) {
	// The core §5.4 claim in miniature: the particle density field's RMS
	// contrast from Poisson noise scales as 1/sqrt(N per cell).
	mk := func(n int, seed int64) float64 {
		p, _ := nbody.NewParticles(n, 1, [3]float64{8, 8, 8})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < p.N; i++ {
			for d := 0; d < 3; d++ {
				p.Pos[d][i] = rng.Float64() * 8
			}
		}
		m, err := MomentsFromParticles(p, [3]int{4, 4, 4})
		if err != nil {
			t.Fatal(err)
		}
		return Stats(m.Density).RMSContrast
	}
	lo := mk(640, 9)   // 10 particles/cell
	hi := mk(64000, 9) // 1000 particles/cell
	ratio := lo / hi
	if ratio < 5 || ratio > 20 { // expect ≈ sqrt(100) = 10
		t.Fatalf("shot noise ratio %v, want ≈ 10", ratio)
	}
}

func TestCompareNoise(t *testing.T) {
	smooth := []float64{1, 1, 1, 1}
	noisy := []float64{0.5, 1.5, 0.7, 1.3}
	nc := CompareNoise(smooth, noisy)
	if nc.VlasovRMS != 0 {
		t.Fatalf("smooth RMS %v", nc.VlasovRMS)
	}
	if nc.ParticleRMS <= 0.2 {
		t.Fatalf("noisy RMS %v", nc.ParticleRMS)
	}
}
