package poisson

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewSolverValidation(t *testing.T) {
	if _, err := NewSolver([3]int{1, 8, 8}, [3]float64{1, 1, 1}); err == nil {
		t.Fatal("mesh extent 1 accepted")
	}
	if _, err := NewSolver([3]int{8, 8, 8}, [3]float64{1, -1, 1}); err == nil {
		t.Fatal("negative box accepted")
	}
}

// planeWaveTest solves ∇²φ = coeff·cos(k·x) and compares with the analytic
// φ = −coeff·cos(k·x)/k².
func planeWaveTest(t *testing.T, n [3]int, box [3]float64, mode [3]int, coeff float64) {
	t.Helper()
	s, err := NewSolver(n, box)
	if err != nil {
		t.Fatal(err)
	}
	var k [3]float64
	for d := 0; d < 3; d++ {
		k[d] = 2 * math.Pi * float64(mode[d]) / box[d]
	}
	k2 := k[0]*k[0] + k[1]*k[1] + k[2]*k[2]
	src := make([]float64, s.Size())
	want := make([]float64, s.Size())
	idx := 0
	for ix := 0; ix < n[0]; ix++ {
		x := float64(ix) * box[0] / float64(n[0])
		for iy := 0; iy < n[1]; iy++ {
			y := float64(iy) * box[1] / float64(n[1])
			for iz := 0; iz < n[2]; iz++ {
				z := float64(iz) * box[2] / float64(n[2])
				ph := k[0]*x + k[1]*y + k[2]*z
				src[idx] = math.Cos(ph)
				want[idx] = -coeff * math.Cos(ph) / k2
				idx++
			}
		}
	}
	phi, err := s.Solve(src, coeff, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range phi {
		if d := math.Abs(phi[i] - want[i]); d > 1e-10*math.Abs(coeff/k2) {
			t.Fatalf("mode %v: phi[%d] = %v, want %v", mode, i, phi[i], want[i])
		}
	}
}

func TestPlaneWaveSolutions(t *testing.T) {
	planeWaveTest(t, [3]int{16, 16, 16}, [3]float64{100, 100, 100}, [3]int{1, 0, 0}, 1)
	planeWaveTest(t, [3]int{16, 16, 16}, [3]float64{100, 100, 100}, [3]int{2, 3, 1}, 5.5)
	planeWaveTest(t, [3]int{12, 8, 16}, [3]float64{50, 80, 120}, [3]int{1, 2, 3}, 0.7)
	// The hybrid benchmark's mesh, a mixed 3·5 / 4·5 / 4·3 one, and a
	// Bluestein one with odd (no Nyquist plane) extents.
	planeWaveTest(t, [3]int{20, 20, 20}, [3]float64{200, 200, 200}, [3]int{3, 1, 2}, 2.5)
	planeWaveTest(t, [3]int{15, 20, 12}, [3]float64{50, 80, 120}, [3]int{2, 1, 3}, 0.7)
	planeWaveTest(t, [3]int{7, 7, 7}, [3]float64{10, 10, 10}, [3]int{1, 2, 3}, 1)
}

func TestMeanRemoved(t *testing.T) {
	// A constant source has no periodic solution; the solver must project
	// it out and return φ = 0.
	s, _ := NewSolver([3]int{8, 8, 8}, [3]float64{1, 1, 1})
	src := make([]float64, s.Size())
	for i := range src {
		src[i] = 42.0
	}
	phi, err := s.Solve(src, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range phi {
		if math.Abs(v) > 1e-10 {
			t.Fatalf("phi[%d] = %v for constant source", i, v)
		}
	}
}

func TestSuperpositionProperty(t *testing.T) {
	// Poisson is linear: Solve(a·s1 + b·s2) = a·Solve(s1) + b·Solve(s2).
	for _, mesh := range [][3]int{{8, 8, 8}, {20, 20, 20}, {15, 20, 12}, {7, 7, 7}} {
		s, _ := NewSolver(mesh, [3]float64{10, 10, 10})
		n := s.Size()
		s1 := make([]float64, n)
		s2 := make([]float64, n)
		for i := range s1 {
			s1[i] = math.Sin(float64(i))
			s2[i] = math.Cos(float64(3 * i))
		}
		p1, _ := s.Solve(s1, 1, nil)
		p2, _ := s.Solve(s2, 1, nil)
		f := func(ar, br float64) bool {
			a := math.Mod(ar, 10)
			b := math.Mod(br, 10)
			mix := make([]float64, n)
			for i := range mix {
				mix[i] = a*s1[i] + b*s2[i]
			}
			pm, err := s.Solve(mix, 1, nil)
			if err != nil {
				return false
			}
			for i := range pm {
				if math.Abs(pm[i]-(a*p1[i]+b*p2[i])) > 1e-9*(1+math.Abs(a)+math.Abs(b)) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("mesh %v: %v", mesh, err)
		}
	}
}

// TestSharedTransform: the two potentials a TreePM step takes from one
// Transform are, bit for bit, the ones two one-shot solves give — Potential
// leaves the stored spectrum alone, in either order.
func TestSharedTransform(t *testing.T) {
	for _, mesh := range [][3]int{{20, 20, 20}, {15, 20, 12}, {7, 7, 7}} {
		box := [3]float64{100, 80, 120}
		src := make([]float64, mesh[0]*mesh[1]*mesh[2])
		for i := range src {
			src[i] = math.Sin(float64(7*i)) + 0.3*math.Cos(float64(i*i%97))
		}
		const coeff, rs = 1.7, 4.5
		ref, _ := NewSolver(mesh, box)
		full, err := ref.SolveFiltered(src, coeff, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		long, err := ref.SolveFiltered(src, coeff, rs, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := NewSolver(mesh, box)
		if err := s.Transform(src); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			rs   float64
			want []float64
		}{{0, full}, {rs, long}, {0, full}} {
			got, err := s.Potential(coeff, c.rs, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(c.want[i]) {
					t.Fatalf("mesh %v rs %v: shared-transform potential differs at %d: %v vs %v", mesh, c.rs, i, v, c.want[i])
				}
			}
		}
	}
	s, _ := NewSolver([3]int{4, 4, 4}, [3]float64{1, 1, 1})
	if err := s.Transform(make([]float64, 5)); err == nil {
		t.Fatal("short source accepted")
	}
	if _, err := s.Potential(1, 0, make([]float64, 5)); err == nil {
		t.Fatal("short phi accepted")
	}
}

func TestGradientPlaneWave(t *testing.T) {
	// ∂/∂x cos(kx) = −k sin(kx); fourth-order differences on 32 cells per
	// wavelength are accurate to ~(kΔ)⁴/30 ≈ 5e-5 relative.
	n := [3]int{32, 4, 4}
	box := [3]float64{1, 1, 1}
	s, _ := NewSolver(n, box)
	phi := make([]float64, s.Size())
	k := 2 * math.Pi / box[0]
	idx := 0
	for ix := 0; ix < n[0]; ix++ {
		x := float64(ix) / float64(n[0])
		for iy := 0; iy < n[1]; iy++ {
			for iz := 0; iz < n[2]; iz++ {
				phi[idx] = math.Cos(k * x)
				idx++
			}
		}
	}
	g := make([]float64, s.Size())
	if err := s.Gradient(phi, 0, g); err != nil {
		t.Fatal(err)
	}
	idx = 0
	for ix := 0; ix < n[0]; ix++ {
		x := float64(ix) / float64(n[0])
		want := -k * math.Sin(k*x)
		for iy := 0; iy < n[1]; iy++ {
			for iz := 0; iz < n[2]; iz++ {
				if d := math.Abs(g[idx] - want); d > 2e-4*k {
					t.Fatalf("gradient at ix=%d: %v, want %v", ix, g[idx], want)
				}
				idx++
			}
		}
	}
}

func TestGradientValidation(t *testing.T) {
	s, _ := NewSolver([3]int{8, 8, 8}, [3]float64{1, 1, 1})
	phi := make([]float64, s.Size())
	g := make([]float64, s.Size())
	if err := s.Gradient(phi, 3, g); err == nil {
		t.Fatal("dim 3 accepted")
	}
	if err := s.Gradient(phi[:10], 0, g); err == nil {
		t.Fatal("short phi accepted")
	}
}

func TestAccelPointsDownhill(t *testing.T) {
	// For a single overdense peak the acceleration must point toward the
	// peak (negative gradient of potential, potential negative at peak).
	n := [3]int{16, 16, 16}
	s, _ := NewSolver(n, [3]float64{16, 16, 16})
	src := make([]float64, s.Size())
	peak := (8*16 + 8) * 16
	src[peak+8] = 100 // overdensity at (8,8,8)
	phi, err := s.Solve(src, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if phi[peak+8] >= 0 {
		t.Fatalf("potential at peak %v, want negative", phi[peak+8])
	}
	acc, err := s.Accel(phi)
	if err != nil {
		t.Fatal(err)
	}
	// At (4,8,8), ax must be positive (pull toward larger x).
	at := ((4*16 + 8) * 16) + 8
	if acc[0][at] <= 0 {
		t.Fatalf("acceleration does not point toward the peak: %v", acc[0][at])
	}
	// At (12,8,8), ax must be negative.
	at = ((12*16 + 8) * 16) + 8
	if acc[0][at] >= 0 {
		t.Fatalf("acceleration does not point back toward the peak: %v", acc[0][at])
	}
}

func TestSolveReusesPhiBuffer(t *testing.T) {
	s, _ := NewSolver([3]int{8, 8, 8}, [3]float64{1, 1, 1})
	src := make([]float64, s.Size())
	src[5] = 1
	buf := make([]float64, s.Size())
	out, err := s.Solve(src, 1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[0] {
		t.Fatal("provided buffer not used")
	}
	if _, err := s.Solve(src, 1, make([]float64, 3)); err == nil {
		t.Fatal("short phi buffer accepted")
	}
	if _, err := s.Solve(src[:5], 1, nil); err == nil {
		t.Fatal("short source accepted")
	}
}

// TestAccelIntoMatchesGradient: the fused one-pass −∇φ is Gradient's stencil
// bit for bit, on non-cubic meshes and down to N = 2, 3, 4, where every
// plane wraps and the interior loops are empty.
func TestAccelIntoMatchesGradient(t *testing.T) {
	for _, n := range [][3]int{{2, 2, 2}, {3, 3, 3}, {4, 4, 4}, {2, 3, 4}, {4, 5, 3}, {5, 2, 6}, {6, 9, 7}, {16, 8, 12}} {
		s, err := NewSolver(n, [3]float64{50, 70, 110})
		if err != nil {
			t.Fatal(err)
		}
		phi := make([]float64, s.Size())
		for i := range phi {
			phi[i] = math.Sin(float64(3*i)) + 1e-3*float64(i%7)
		}
		var acc [3][]float64
		if err := s.AccelInto(phi, &acc); err != nil {
			t.Fatal(err)
		}
		g := make([]float64, s.Size())
		for d := 0; d < 3; d++ {
			if err := s.Gradient(phi, d, g); err != nil {
				t.Fatal(err)
			}
			for i := range g {
				if acc[d][i] != -g[i] {
					t.Fatalf("mesh %v dim %d cell %d: AccelInto %v, −Gradient %v", n, d, i, acc[d][i], -g[i])
				}
			}
		}
	}
	s, _ := NewSolver([3]int{4, 4, 4}, [3]float64{1, 1, 1})
	var acc [3][]float64
	if err := s.AccelInto(make([]float64, 5), &acc); err == nil {
		t.Fatal("mis-sized phi accepted")
	}
}

// TestFilterTableMatchesExp: the per-axis filter factors multiply to the
// direct exp(−k²·rs²) of every cell to rounding (1e-15 relative per unit of
// the exponent), and a filtered solve applies exactly that product.
func TestFilterTableMatchesExp(t *testing.T) {
	s, err := NewSolver([3]int{16, 12, 20}, [3]float64{100, 80, 120})
	if err != nil {
		t.Fatal(err)
	}
	const rs = 1.25 * 100.0 / 16
	s.fillFilter(rs)
	for ix, kx2 := range s.kfac[0] {
		for iy, ky2 := range s.kfac[1] {
			for iz, kz2 := range s.kfac[2] {
				got := s.filt[0][ix] * s.filt[1][iy] * s.filt[2][iz]
				arg := (kx2 + ky2 + kz2) * rs * rs
				want := math.Exp(-arg)
				// exp turns the half-ulp rounding of its argument into a
				// relative error of arg·2⁻⁵³ in either form, so that is the
				// scale on which the two can be asked to agree.
				if math.Abs(got-want) > 1e-15*(1+arg)*want {
					t.Fatalf("filter at (%d,%d,%d): %v vs exp %v (rel %.3g)", ix, iy, iz, got, want, math.Abs(got-want)/want)
				}
			}
		}
	}
	// One Fourier mode through the solve picks up exactly its filter factor.
	mode := [3]int{2, 1, 3}
	src := make([]float64, s.Size())
	idx := 0
	for ix := 0; ix < s.N[0]; ix++ {
		for iy := 0; iy < s.N[1]; iy++ {
			for iz := 0; iz < s.N[2]; iz++ {
				src[idx] = math.Cos(2 * math.Pi * (float64(mode[0]*ix)/float64(s.N[0]) +
					float64(mode[1]*iy)/float64(s.N[1]) + float64(mode[2]*iz)/float64(s.N[2])))
				idx++
			}
		}
	}
	plain, err := s.SolveFiltered(src, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	long, err := s.SolveFiltered(src, 3, rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := math.Exp(-(s.kfac[0][mode[0]] + s.kfac[1][mode[1]] + s.kfac[2][mode[2]]) * rs * rs)
	for i := range plain {
		if math.Abs(long[i]-f*plain[i]) > 1e-12*math.Abs(plain[0]) {
			t.Fatalf("cell %d: filtered %v, want %v·%v", i, long[i], f, plain[i])
		}
	}
}
