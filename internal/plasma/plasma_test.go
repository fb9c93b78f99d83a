package plasma

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := NewWithScheme(4, 32, 10, 6, "slmpp5"); err == nil {
		t.Fatal("nx < 6 accepted")
	}
	if _, err := NewWithScheme(32, 4, 10, 6, "slmpp5"); err == nil {
		t.Fatal("nv < 6 accepted")
	}
	if _, err := NewWithScheme(32, 32, -1, 6, "slmpp5"); err == nil {
		t.Fatal("bad L accepted")
	}
	if _, err := NewWithScheme(32, 32, 10, 0, "slmpp5"); err == nil {
		t.Fatal("bad Vmax accepted")
	}
	if _, err := NewWithScheme(32, 32, 10, 6, "no-such-scheme"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestSchemeSelectionDampsLandau(t *testing.T) {
	// The x-drift scheme is swappable: the MP5 comparator integrates the
	// same Landau problem stably (its CFL ≤ 1 limit caps SuggestDT), and
	// the low-order upwind baseline over-damps — the measurable difference
	// scheme-comparison sweeps exist to show.
	// Compare decay envelopes (the peak field energy over the final time
	// window), which is phase-insensitive, unlike an instantaneous ratio.
	run := func(scheme string) (envelope float64) {
		s, err := NewWithScheme(32, 64, 4*math.Pi, 6, scheme)
		if err != nil {
			t.Fatal(err)
		}
		s.LandauInit(0.05, 0.5, 1)
		e0 := s.FieldEnergy()
		for s.Time < 8 {
			if err := s.Step(s.SuggestDT()); err != nil {
				t.Fatalf("%s: %v", scheme, err)
			}
			if s.Time > 6 {
				if e := s.FieldEnergy(); e > envelope {
					envelope = e
				}
			}
		}
		return envelope / e0
	}
	mp5 := run("mp5")
	if mp5 <= 0 || mp5 >= 1 {
		t.Fatalf("mp5 field envelope ratio %v, want damping in (0, 1)", mp5)
	}
	upwind := run("upwind1")
	if upwind >= mp5/2 {
		t.Fatalf("upwind1 envelope %v not well below mp5 %v (first order must over-damp)", upwind, mp5)
	}
}

func TestSuggestDTRespectsSchemeCFLLimit(t *testing.T) {
	s, err := NewWithScheme(32, 64, 4*math.Pi, 6, "mp5")
	if err != nil {
		t.Fatal(err)
	}
	s.LandauInit(0.01, 0.5, 1)
	s.CFL = 3 // beyond MP5's stability bound of 1
	if dt := s.SuggestDT(); dt > s.DX()/s.VMax+1e-15 {
		t.Fatalf("SuggestDT %v exceeds the scheme's CFL ≤ 1 limit (dx/vmax = %v)", dt, s.DX()/s.VMax)
	}
}

func TestFaddeevaKnownValues(t *testing.T) {
	// w(0) = 1.
	if d := cmplx.Abs(faddeeva(0) - 1); d > 1e-8 {
		t.Fatalf("w(0) error %v", d)
	}
	// w(i) = e^{1}·erfc(1) ≈ 0.42758357615580700442.
	want := math.E * math.Erfc(1)
	if d := cmplx.Abs(faddeeva(complex(0, 1)) - complex(want, 0)); d > 1e-8 {
		t.Fatalf("w(i) error %v", d)
	}
	// Pure real argument: w(x) = e^{−x²} + i·(2/√π)·Dawson-type imaginary
	// part; check the real part only.
	x := 1.5
	got := faddeeva(complex(x, 1e-12))
	if d := math.Abs(real(got) - math.Exp(-x*x)); d > 1e-6 {
		t.Fatalf("Re w(1.5) error %v", d)
	}
	// Reflection: w(z) + w(−z) = 2e^{−z²}.
	z := complex(1.2, -0.4)
	lhs := faddeeva(z) + faddeeva(-z)
	rhs := 2 * cmplx.Exp(-z*z)
	if d := cmplx.Abs(lhs - rhs); d > 1e-8 {
		t.Fatalf("reflection identity error %v", d)
	}
}

func TestLandauDampingRateTextbookValues(t *testing.T) {
	// Canonical kinetic results (e.g. Chen, Nicholson): for vth = 1,
	// k = 0.5: γ ≈ −0.1533; k = 0.3: γ ≈ −0.0126.
	g := LandauDampingRate(0.5, 1.0)
	if math.Abs(g-(-0.1533)) > 0.005 {
		t.Fatalf("γ(k=0.5) = %v, want ≈ −0.1533", g)
	}
	g = LandauDampingRate(0.3, 1.0)
	if math.Abs(g-(-0.0126)) > 0.002 {
		t.Fatalf("γ(k=0.3) = %v, want ≈ −0.0126", g)
	}
	// Damping strengthens with k.
	if LandauDampingRate(0.6, 1) >= LandauDampingRate(0.4, 1) {
		t.Fatal("γ should become more negative with k")
	}
}

func TestMassConservation(t *testing.T) {
	s, err := NewWithScheme(32, 64, 4*math.Pi, 6, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	s.LandauInit(0.05, 0.5, 1.0)
	m0 := s.TotalMass()
	for i := 0; i < 40; i++ {
		if err := s.Step(0.05); err != nil {
			t.Fatal(err)
		}
	}
	if rel := math.Abs(s.TotalMass()-m0) / m0; rel > 1e-8 {
		t.Fatalf("mass drift %v", rel)
	}
}

// TestDensityMatchesRowSums: Density, which sums four rows at a time,
// gives each ρ bit for bit as the serial sum of its row in cell order, at
// NX = 6, 7, 9, 10, 64 and 65–71, which leave every NX % 4 to the
// row-by-row tail and every NX % 8 (the lane groups of the sweeps) once.
func TestDensityMatchesRowSums(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, nx := range []int{6, 7, 9, 10, 64, 65, 66, 67, 68, 69, 70, 71} {
		s, err := NewWithScheme(nx, 37, 4*math.Pi, 6, "slmpp5")
		if err != nil {
			t.Fatal(err)
		}
		for i := range nx {
			row := s.Row(i)
			for j := range row {
				row[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
		}
		rho, dv := s.Density(), s.DV()
		for i := 0; i < nx; i++ {
			sum := 0.0
			for _, v := range s.Row(i) {
				sum += v
			}
			if want := sum * dv; math.Float64bits(rho[i]) != math.Float64bits(want) {
				t.Fatalf("NX %d: ρ[%d] = %v, the row's serial sum gives %v", nx, i, rho[i], want)
			}
		}
	}
}

func TestNeutralityAndField(t *testing.T) {
	s, err := NewWithScheme(32, 64, 2*math.Pi, 6, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	// Unperturbed Maxwellian: E must vanish.
	s.LandauInit(0, 1, 1)
	e := s.ElectricField()
	for i, v := range e {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("uniform plasma has E[%d] = %v", i, v)
		}
	}
	// Sinusoidal density → E = (α/k)sin(kx)·(normalisation).
	s.LandauInit(0.1, 1, 1)
	e = s.ElectricField()
	// At x where cos(kx) = 0 crossing downward, E should peak; just check
	// amplitude ≈ α/k = 0.1 (ρ amplitude α, E amplitude α/k).
	amp := 0.0
	for _, v := range e {
		if math.Abs(v) > amp {
			amp = math.Abs(v)
		}
	}
	if math.Abs(amp-0.1) > 0.005 {
		t.Fatalf("E amplitude %v, want ≈ 0.1", amp)
	}
}

// measureDampingRate fits ln(fieldEnergy) maxima over the run.
func measureDampingRate(t *testing.T, s *Solver, dt float64, steps int) float64 {
	t.Helper()
	type peak struct{ t, e float64 }
	var peaks []peak
	prev2, prev1 := 0.0, 0.0
	for i := 0; i < steps; i++ {
		if err := s.Step(dt); err != nil {
			t.Fatal(err)
		}
		e := s.FieldEnergy()
		if i >= 2 && prev1 > prev2 && prev1 > e {
			peaks = append(peaks, peak{t: float64(i) * dt, e: prev1})
		}
		prev2, prev1 = prev1, e
	}
	if len(peaks) < 3 {
		t.Fatalf("too few oscillation peaks: %d", len(peaks))
	}
	// Least-squares slope of ln E vs t over the peaks → 2γ.
	n := float64(len(peaks))
	var sx, sy, sxx, sxy float64
	for _, p := range peaks {
		x, y := p.t, math.Log(p.e)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	return slope / 2
}

func TestLandauDampingMeasured(t *testing.T) {
	// The flagship validation, at the benchmark's landau_batch shape and with
	// its gates, so that a kernel regression fails Tier-1: the measured
	// field-energy decay rate must match the kinetic-theory Landau rate
	// within 2 %, and mass must be conserved to 1e-9.
	k := 0.5
	s, err := NewWithScheme(64, 256, 2*math.Pi/k, 8, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	s.LandauInit(0.01, k, 1.0)
	m0 := s.TotalMass()
	got := measureDampingRate(t, s, 0.05, 500)
	want := LandauDampingRate(k, 1.0)
	if rel := math.Abs(got-want) / math.Abs(want); rel > 0.02 {
		t.Fatalf("measured γ = %v, theory %v (off by %.2g)", got, want, rel)
	}
	if drift := math.Abs(s.TotalMass()-m0) / m0; drift > 1e-9 {
		t.Fatalf("mass drifted by %.3g over the run", drift)
	}
}

func TestTwoStreamInstabilityGrows(t *testing.T) {
	// Counter-streaming beams at v0 = 2.4 with k = 0.2 are unstable: the
	// field energy must grow by orders of magnitude before saturation,
	// whatever the x-drift scheme. Through the nonlinear trapping stage the
	// paper's SL-MPP5 keeps f non-negative and the mass to round-off
	// (−8.7e-12 here); the unlimited Lax-Wendroff baseline undershoots
	// (min f ≈ −0.04 here), which is what the MP/PP limiters are for.
	for _, tc := range []struct {
		scheme   string
		positive bool
	}{{"slmpp5", true}, {"laxwendroff2", false}} {
		t.Run(tc.scheme, func(t *testing.T) {
			k := 0.2
			s, err := NewWithScheme(32, 128, 2*math.Pi/k, 8, tc.scheme)
			if err != nil {
				t.Fatal(err)
			}
			s.TwoStreamInit(1e-3, k, 2.4, 0.5)
			e0, m0 := s.FieldEnergy(), s.TotalMass()
			for i := 0; i < 400; i++ {
				if err := s.Step(0.1); err != nil {
					t.Fatal(err)
				}
			}
			if e1 := s.FieldEnergy(); e1 < 100*e0 {
				t.Fatalf("two-stream instability did not grow: %v -> %v", e0, e1)
			}
			minF := math.Inf(1)
			for _, v := range s.F {
				minF = math.Min(minF, v)
			}
			drift := (s.TotalMass() - m0) / m0
			switch {
			case tc.positive && minF < 0:
				t.Fatalf("negative f: min %v", minF)
			case tc.positive && math.Abs(drift) > 1e-9:
				t.Fatalf("mass drift %v", drift)
			case !tc.positive && minF > -1e-3:
				t.Fatalf("the unlimited scheme kept min f = %v: the limiter comparison shows nothing", minF)
			}
		})
	}
}

func TestLandauStableMaxwellianStaysQuiet(t *testing.T) {
	// Control: with no perturbation the field energy stays at round-off.
	s, err := NewWithScheme(32, 64, 4*math.Pi, 6, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	s.LandauInit(0, 0.5, 1.0)
	for i := 0; i < 50; i++ {
		if err := s.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	if e := s.FieldEnergy(); e > 1e-20 {
		t.Fatalf("unperturbed plasma grew field energy %v", e)
	}
}

func TestSolverContractForRunner(t *testing.T) {
	// The solver carries its own clock and CFL-based dt suggestion so the
	// unified runner can drive it like any other workload.
	s, err := NewWithScheme(32, 64, 4*math.Pi, 6, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	s.LandauInit(0.01, 0.5, 1.0)
	if s.Clock() != 0 {
		t.Fatalf("initial clock %v", s.Clock())
	}
	dt := s.SuggestDT()
	xBound := s.CFL * s.DX() / s.VMax
	if dt <= 0 || dt > xBound+1e-15 {
		t.Fatalf("SuggestDT %v outside (0, %v]", dt, xBound)
	}
	for i := 0; i < 3; i++ {
		if err := s.Step(dt); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.Clock(), 3*dt; math.Abs(got-want) > 1e-12 {
		t.Fatalf("clock %v after 3 steps of %v", got, dt)
	}
	d := s.Diagnostics()
	if d.Clock != s.Time || d.Mass <= 0 || d.Extra["field_energy"] < 0 {
		t.Fatalf("diagnostics %+v", d)
	}
}

// TestWorkerCountInvariance: the worker count must never change the
// physics. Lines are independent and computed identically, so the evolved
// state is bit-identical for any SetWorkers setting — the property that
// makes a scheduler-owned core budget free to resize a running solver.
func TestWorkerCountInvariance(t *testing.T) {
	build := func(workers int) *Solver {
		s, err := NewWithScheme(32, 64, 4*math.Pi, 8, "slmpp5")
		if err != nil {
			t.Fatal(err)
		}
		s.LandauInit(0.05, 0.5, 1.0)
		s.SetWorkers(workers)
		return s
	}
	s1 := build(1)
	s4 := build(4)
	const dt = 0.05
	for i := 0; i < 25; i++ {
		if err := s1.Step(dt); err != nil {
			t.Fatal(err)
		}
		if err := s4.Step(dt); err != nil {
			t.Fatal(err)
		}
		// A mid-run resize between steps must be equally invisible.
		if i == 12 {
			s4.SetWorkers(3)
		}
	}
	for i := range s1.F {
		if s1.F[i] != s4.F[i] {
			t.Fatalf("F[%d]: 1-worker %v != multi-worker %v — worker count changed the physics", i, s1.F[i], s4.F[i])
		}
	}
	if s1.Time != s4.Time {
		t.Fatalf("Time diverged: %v vs %v", s1.Time, s4.Time)
	}
}

// TestSetWorkersFloor: the worker count floors at one.
func TestSetWorkersFloor(t *testing.T) {
	s, err := NewWithScheme(16, 16, 10, 6, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(0)
	if nw := s.pool.Workers(s.NX); nw != 1 {
		t.Fatalf("workers %d after SetWorkers(0), want 1", nw)
	}
	s.SetWorkers(-3)
	if nw := s.pool.Workers(s.NX); nw != 1 {
		t.Fatalf("workers %d after SetWorkers(-3), want 1", nw)
	}
}

// TestInitsMatchPerCellClosures: LandauInit and TwoStreamInit, which
// multiply an x factor by a v factor, give every cell bit for bit the
// value of the per-cell closure they replaced, on grids with NX and NV
// multiples of 8 and not, and for several amplitudes, wavenumbers and
// thermal speeds.
func TestInitsMatchPerCellClosures(t *testing.T) {
	landau := func(alpha, k, vth float64) func(x, v float64) float64 {
		norm := 1 / (math.Sqrt(2*math.Pi) * vth)
		return func(x, v float64) float64 {
			return (1 + alpha*math.Cos(k*x)) * norm * math.Exp(-v*v/(2*vth*vth))
		}
	}
	twoStream := func(alpha, k, v0, vth float64) func(x, v float64) float64 {
		norm := 1 / (2 * math.Sqrt(2*math.Pi) * vth)
		return func(x, v float64) float64 {
			b := math.Exp(-(v-v0)*(v-v0)/(2*vth*vth)) + math.Exp(-(v+v0)*(v+v0)/(2*vth*vth))
			return (1 + alpha*math.Cos(k*x)) * norm * b
		}
	}
	check := func(s *Solver, name string, f func(x, v float64) float64) {
		t.Helper()
		for i := 0; i < s.NX; i++ {
			for j := 0; j < s.NV; j++ {
				if got, want := s.Row(i)[j], f(s.X(i), s.V(j)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %dx%d: f[%d][%d] = %v, the per-cell closure gives %v", name, s.NX, s.NV, i, j, got, want)
				}
			}
		}
	}
	for _, g := range [][2]int{{64, 256}, {32, 64}, {6, 7}, {13, 37}, {67, 259}} {
		for _, p := range [][3]float64{{0.01, 0.5, 1}, {0.0093, 0.4, 1}, {0.0117, 0.3, 0.8}, {0.5, 1.3, 2}} {
			alpha, k, vth := p[0], p[1], p[2]
			s, err := NewWithScheme(g[0], g[1], 2*math.Pi/k, 6, "slmpp5")
			if err != nil {
				t.Fatal(err)
			}
			s.LandauInit(alpha, k, vth)
			check(s, "LandauInit", landau(alpha, k, vth))
			s.TwoStreamInit(alpha, k, 2.4, vth/3)
			check(s, "TwoStreamInit", twoStream(alpha, k, 2.4, vth/3))
		}
	}
}
