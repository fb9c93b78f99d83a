package advect

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sineLine(n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = 2 + math.Sin(2*math.Pi*float64(i)/float64(n))
	}
	return f
}

func stepLine(n int) []float64 {
	f := make([]float64, n)
	for i := n / 4; i < 3*n/4; i++ {
		f[i] = 1
	}
	return f
}

func sum(f []float64) float64 {
	s := 0.0
	for _, v := range f {
		s += v
	}
	return s
}

// namedScheme is a scheme and the name New takes for it.
type namedScheme struct {
	name string
	s    Scheme
}

func allSchemes() []namedScheme {
	return []namedScheme{{"slmpp5", NewSLMPP5()}, {"mp5", NewMP5()}, {"upwind1", NewUpwind1()}, {"laxwendroff2", NewLaxWendroff2()}}
}

func TestNewByName(t *testing.T) {
	for i, name := range Names() {
		s, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if want := allSchemes()[i]; want.name != name || fmt.Sprintf("%T", s) != fmt.Sprintf("%T", want.s) {
			t.Fatalf("New(%q) built a %T, want the %s scheme %T", name, s, want.name, want.s)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestMassConservationPeriodic(t *testing.T) {
	for _, ns := range allSchemes() {
		for _, c := range []float64{0.3, -0.3, 0.9, -0.9} {
			f := stepLine(64)
			m0 := sum(f)
			for it := 0; it < 50; it++ {
				if err := ns.s.Step(f, c); err != nil {
					t.Fatalf("%s: %v", ns.name, err)
				}
			}
			if d := math.Abs(sum(f) - m0); d > 1e-10 {
				t.Fatalf("%s c=%v: mass drift %v", ns.name, c, d)
			}
		}
	}
}

func TestMassConservationLargeCFL(t *testing.T) {
	s := NewSLMPP5()
	for _, c := range []float64{1.5, 2.7, -3.3, 17.25, -0.001} {
		f := stepLine(96)
		m0 := sum(f)
		for it := 0; it < 20; it++ {
			if err := s.Step(f, c); err != nil {
				t.Fatal(err)
			}
		}
		if d := math.Abs(sum(f) - m0); d > 1e-10 {
			t.Fatalf("c=%v: mass drift %v", c, d)
		}
	}
}

func TestIntegerShiftIsExact(t *testing.T) {
	// With an integer CFL the semi-Lagrangian update is an exact shift.
	s := NewSLMPP5()
	for _, c := range []float64{1, 3, -2, -5} {
		n := 32
		f := make([]float64, n)
		rng := rand.New(rand.NewSource(1))
		for i := range f {
			f[i] = rng.Float64()
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = f[mod(i-int(c), n)]
		}
		if err := s.Step(f, c); err != nil {
			t.Fatal(err)
		}
		for i := range f {
			if math.Abs(f[i]-want[i]) > 1e-12 {
				t.Fatalf("c=%v: cell %d = %v, want %v", c, i, f[i], want[i])
			}
		}
	}
}

// stepper advances a periodic line: a Scheme, or the oracle.
type stepper interface {
	Step(f []float64, c float64) error
}

// convergenceRate advects a smooth profile one full period and returns the
// measured order between resolutions n and 2n.
func convergenceRate(t *testing.T, s stepper, n int, cfl float64) float64 {
	t.Helper()
	err1 := advectError(t, s, n, cfl)
	err2 := advectError(t, s, 2*n, cfl)
	return math.Log2(err1 / err2)
}

func advectError(t *testing.T, s stepper, n int, cfl float64) float64 {
	t.Helper()
	f := make([]float64, n)
	exact := make([]float64, n)
	for i := range f {
		x := float64(i) / float64(n)
		f[i] = 2 + math.Sin(2*math.Pi*x)
		exact[i] = f[i]
	}
	steps := int(math.Round(float64(n) / cfl)) // one full period
	c := float64(n) / float64(steps)           // adjust so steps·c = n exactly
	for it := 0; it < steps; it++ {
		if err := s.Step(f, c); err != nil {
			t.Fatal(err)
		}
	}
	e := 0.0
	for i := range f {
		e += math.Abs(f[i] - exact[i])
	}
	return e / float64(n)
}

func TestSLMPP5FifthOrder(t *testing.T) {
	s := NewSLMPP5()
	rate := convergenceRate(t, s, 32, 0.4)
	if rate < 4.2 {
		t.Fatalf("SL-MPP5 convergence order %v, want ≥ 4.2", rate)
	}
}

func TestSLMPP5UnlimitedFifthOrder(t *testing.T) {
	rate := convergenceRate(t, oracle{}, 32, 0.4)
	if rate < 4.6 {
		t.Fatalf("unlimited CSL5 convergence order %v, want ≥ 4.6", rate)
	}
}

func TestMP5FifthOrderSpace(t *testing.T) {
	// With CFL fixed, RK3's O(Δt³) error dominates at 5th order in space;
	// use a small CFL so the spatial error is visible.
	s := NewMP5()
	rate := convergenceRate(t, s, 32, 0.1)
	if rate < 2.8 { // limited by RK3 temporal order at fixed CFL
		t.Fatalf("MP5-RK3 convergence order %v, want ≥ 2.8", rate)
	}
}

func TestUpwindFirstOrder(t *testing.T) {
	s := NewUpwind1()
	rate := convergenceRate(t, s, 64, 0.4)
	if rate < 0.7 || rate > 1.4 {
		t.Fatalf("upwind order %v, want ≈ 1", rate)
	}
}

func TestSchemeAccuracyOrdering(t *testing.T) {
	// The paper's point: SL-MPP5 is far less diffusive than low-order
	// schemes at equal resolution.
	n := 64
	eSL := advectError(t, NewSLMPP5(), n, 0.4)
	eUp := advectError(t, NewUpwind1(), n, 0.4)
	eLW := advectError(t, NewLaxWendroff2(), n, 0.4)
	if !(eSL < eLW && eLW < eUp) {
		t.Fatalf("error ordering violated: slmpp5=%v lw=%v upwind=%v", eSL, eLW, eUp)
	}
	if eUp/eSL < 100 {
		t.Fatalf("SL-MPP5 should beat upwind by ≫ 100×, got %v×", eUp/eSL)
	}
}

func TestMonotonicityOnStep(t *testing.T) {
	// Advect a step: MP schemes must not create new extrema beyond the
	// initial [0,1] range (to round-off) when run within their guaranteed
	// CFL regime. SL-MPP5's CFL-adaptive α makes it monotone at any CFL;
	// classic MP5 with α = 4 guarantees monotonicity for CFL ≤ 1/(1+α).
	cases := []struct {
		name string
		s    Scheme
		cfl  float64
	}{
		{"slmpp5", NewSLMPP5(), 0.45},
		{"slmpp5", NewSLMPP5(), 1.37}, // beyond CFL 1, SL regime
		{"mp5", NewMP5(), 0.18},
	}
	for _, tc := range cases {
		f := stepLine(64)
		for it := 0; it < 100; it++ {
			if err := tc.s.Step(f, tc.cfl); err != nil {
				t.Fatal(err)
			}
		}
		for i, v := range f {
			if v < -1e-10 || v > 1+1e-10 {
				t.Fatalf("%s cfl=%v: overshoot at %d: %v", tc.name, tc.cfl, i, v)
			}
		}
	}
}

func TestLaxWendroffOscillates(t *testing.T) {
	// Sanity check that the limiter comparison above is meaningful: the
	// unlimited second-order scheme DOES overshoot on a step.
	s := NewLaxWendroff2()
	f := stepLine(64)
	for it := 0; it < 40; it++ {
		if err := s.Step(f, 0.45); err != nil {
			t.Fatal(err)
		}
	}
	over := false
	for _, v := range f {
		if v < -1e-6 || v > 1+1e-6 {
			over = true
		}
	}
	if !over {
		t.Fatal("Lax-Wendroff unexpectedly monotone — limiter tests are vacuous")
	}
}

func TestPositivityPreservation(t *testing.T) {
	// A narrow spike with zero background must stay non-negative.
	s := NewSLMPP5()
	f := make([]float64, 64)
	f[30] = 1
	f[31] = 2
	for it := 0; it < 200; it++ {
		if err := s.Step(f, 0.37); err != nil {
			t.Fatal(err)
		}
		for i, v := range f {
			if v < 0 {
				t.Fatalf("negative value %v at cell %d, step %d", v, i, it)
			}
		}
	}
	if d := math.Abs(sum(f) - 3); d > 1e-10 {
		t.Fatalf("mass drift %v under PP clipping", d)
	}
}

func TestStepOpenLosesMassThroughBoundary(t *testing.T) {
	s := NewSLMPP5()
	f := make([]float64, 32)
	f[30] = 1
	m0 := sum(f)
	// Push mass rightward out of the open boundary.
	for it := 0; it < 10; it++ {
		if err := s.StepOpen(f, 0.8); err != nil {
			t.Fatal(err)
		}
	}
	if sum(f) >= m0 {
		t.Fatal("open boundary did not lose mass")
	}
	for i, v := range f {
		if v < 0 {
			t.Fatalf("negative value at %d: %v", i, v)
		}
	}
}

func TestStepOpenNoInflow(t *testing.T) {
	s := NewSLMPP5()
	f := make([]float64, 32) // all zero
	if err := s.StepOpen(f, 0.8); err != nil {
		t.Fatal(err)
	}
	for i, v := range f {
		if v != 0 {
			t.Fatalf("vacuum line gained mass at %d: %v", i, v)
		}
	}
}

func TestErrorsOnShortLines(t *testing.T) {
	for _, ns := range allSchemes() {
		f := []float64{1}
		if err := ns.s.Step(f, 0.5); err == nil {
			t.Fatalf("%s accepted a 1-cell line", ns.name)
		}
	}
}

func TestCFLLimitEnforced(t *testing.T) {
	for _, ns := range allSchemes()[1:] {
		if m := ns.s.MaxCFL(); m != 1 {
			t.Errorf("%s: MaxCFL %v, want 1", ns.name, m)
		}
		f := sineLine(16)
		if err := ns.s.Step(f, 1.5); err == nil {
			t.Fatalf("%s accepted CFL 1.5", ns.name)
		}
	}
	// SL-MPP5 has no limit and must accept it.
	if m := NewSLMPP5().MaxCFL(); m != 0 {
		t.Errorf("slmpp5: MaxCFL %v, want 0", m)
	}
	if err := NewSLMPP5().Step(sineLine(16), 1.5); err != nil {
		t.Fatalf("SL-MPP5 rejected CFL 1.5: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	for _, ns := range allSchemes() {
		s, c := ns.s, ns.s.Clone()
		if fmt.Sprintf("%T", c) != fmt.Sprintf("%T", s) {
			t.Fatalf("clone of %s is a %T", ns.name, c)
		}
		f1, f2 := sineLine(32), sineLine(32)
		if err := s.Step(f1, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := c.Step(f2, 0.5); err != nil {
			t.Fatal(err)
		}
		for i := range f1 {
			if f1[i] != f2[i] {
				t.Fatalf("%s: clone diverges at %d", ns.name, i)
			}
		}
	}
}

func TestConservationProperty(t *testing.T) {
	// Property: for random non-negative lines and random CFL, SL-MPP5
	// conserves mass and preserves positivity.
	s := NewSLMPP5()
	f := func(seed int64, craw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(48)
		line := make([]float64, n)
		for i := range line {
			line[i] = rng.Float64() * 10
		}
		c := math.Mod(craw, 8)
		m0 := sum(line)
		if err := s.Step(line, c); err != nil {
			return false
		}
		if math.Abs(sum(line)-m0) > 1e-9*(1+m0) {
			return false
		}
		for _, v := range line {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuinticInterpolatesNodes(t *testing.T) {
	w := [6]float64{0, 1, 4, 9, 16, 25}
	for m := 0; m < 6; m++ {
		if got := quintic(&w, float64(m)); math.Abs(got-w[m]) > 1e-12 {
			t.Fatalf("quintic(%d) = %v, want %v", m, got, w[m])
		}
	}
	// Quintic must reproduce any degree-5 polynomial exactly; t².
	for _, tv := range []float64{0.5, 1.7, 2.3, 4.9} {
		if got := quintic(&w, tv); math.Abs(got-tv*tv) > 1e-10 {
			t.Fatalf("quintic(%v) = %v, want %v", tv, got, tv*tv)
		}
	}
}

func TestMinmodMedian(t *testing.T) {
	if minmod2(1, 2) != 1 || minmod2(-1, -3) != -1 || minmod2(-1, 2) != 0 {
		t.Fatal("minmod2 wrong")
	}
	if minmod4(1, 2, 3, 4) != 1 || minmod4(1, -2, 3, 4) != 0 {
		t.Fatal("minmod4 wrong")
	}
	if median(0, 1, 2) != 1 || median(5, 1, 2) != 2 || median(1.5, 1, 2) != 1.5 {
		t.Fatal("median wrong")
	}
}

// TestMinmod2MatchesOracle holds the branch-free minmod2 to the textbook
// form bit for bit (up to the sign of a zero) wherever a·b does not
// underflow, and pins the one place the two differ.
func TestMinmod2MatchesOracle(t *testing.T) {
	check := func(a, b float64) {
		t.Helper()
		got, want := minmod2(a, b), oracleMinmod2(a, b)
		if math.IsNaN(a * b) {
			// ±0 against ±∞: every test of the oracle fails on the NaN and it
			// answers b; the minmod of a zero is zero.
			want = 0
		}
		// A zero minmod keeps a's sign (−0 where a negative argument meets
		// −0, which f ≥ 0 data never holds); the oracle's zero is +0.
		if got == 0 && want == 0 {
			return
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("minmod2(%g, %g) = %g, oracle %g", a, b, got, want)
		}
	}
	rng := rand.New(rand.NewSource(25))
	for it := 0; it < 200000; it++ {
		// Exponents in [−500, 500]: a·b neither underflows nor overflows.
		a := math.Ldexp(rng.Float64(), rng.Intn(1001)-500)
		b := math.Ldexp(rng.Float64(), rng.Intn(1001)-500)
		if rng.Intn(8) == 0 {
			b = a
		}
		if rng.Intn(2) == 0 {
			a = -a
		}
		if rng.Intn(2) == 0 {
			b = -b
		}
		check(a, b)
	}

	tiny := math.SmallestNonzeroFloat64
	edges := []float64{0, math.Copysign(0, -1), tiny, 3 * tiny, 0x1p-1022, 0.5, 1, 2, math.MaxFloat64, math.Inf(1)}
	for _, x := range edges {
		for _, y := range edges {
			for _, sign := range [][2]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
				a, b := sign[0]*x, sign[1]*y
				if a*b == 0 && a != 0 && b != 0 {
					continue // the underflow below
				}
				check(a, b)
			}
		}
	}

	// The one intended difference: same signs, both nonzero, a·b underflows
	// to 0. The oracle's product test answers 0; minmod2 answers the exact
	// minmod, and so commutes with scaling by powers of two.
	for _, c := range []struct{ a, b, want float64 }{
		{1e-200, 3e-200, 1e-200},
		{-3e-170, -1e-170, -1e-170},
		{tiny, 3 * tiny, tiny},
		{-0x1p-1022, -tiny, -tiny},
	} {
		if c.a*c.b != 0 || oracleMinmod2(c.a, c.b) != 0 {
			t.Fatalf("(%g, %g) no longer underflows", c.a, c.b)
		}
		for k := 0; k <= 900; k += 50 {
			a, b, want := math.Ldexp(c.a, k), math.Ldexp(c.b, k), math.Ldexp(c.want, k)
			if got := minmod2(a, b); got != want {
				t.Errorf("minmod2(%g, %g) = %g, want %g", a, b, got, want)
			}
		}
	}
}
