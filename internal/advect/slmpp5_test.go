package advect

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomLine draws a non-negative line with runs of exact zeros (the
// compact-support tails the velocity sweeps see) and values of mixed scale.
func randomLine(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		switch rng.Intn(4) {
		case 0: // exact zero
		case 1:
			f[i] = rng.Float64() * 1e-6
		default:
			f[i] = rng.Float64() * 10
		}
	}
	return f
}

// randomCFL mixes fractional, integer and zero CFL numbers in [−3.5, 3.5].
func randomCFL(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return float64(rng.Intn(7) - 3)
	case 1:
		return (rng.Float64()*2 - 1) * 0.999 // |c| < 1: the production regime
	default:
		return (rng.Float64()*2 - 1) * 3.5
	}
}

func TestKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20210816))
	for it := 0; it < 20000; it++ {
		n := 6 + rng.Intn(59)
		c := randomCFL(rng)
		open := rng.Intn(2) == 0
		s := NewSLMPP5()
		f := randomLine(rng, n)
		want := append([]float64(nil), f...)
		at, step := periodicAt, s.Step
		if open {
			at, step = zeroAt, s.StepOpen
		}
		fl := limited.step(want, c, at)
		before := sum(f)
		if err := step(f, c); err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("case %d (n=%d c=%v open=%v)", it, n, c, open)
		for i := range f {
			if d := math.Abs(f[i] - want[i]); !(d <= 1e-12) {
				t.Fatalf("%s: cell %d = %v, oracle %v (diff %g)", id, i, f[i], want[i], d)
			}
			// Positivity is exact, not to round-off.
			if f[i] < 0 {
				t.Fatalf("%s: cell %d went negative: %v", id, i, f[i])
			}
		}
		// What an open line loses is what crossed its two end interfaces; a
		// periodic line's end fluxes are the same interface.
		if d := math.Abs((before - sum(f)) - (fl[n] - fl[0])); d > 1e-12*(1+before) {
			t.Fatalf("%s: lost %v, boundary fluxes give %v", id, before-sum(f), fl[n]-fl[0])
		}
	}
}

func TestSweptWeightsAreTheLagrangeForm(t *testing.T) {
	// a_r(ξ) = [r ≤ 2] − Σ_{m>r} ℓ_m(3−ξ) from the quintic basis on the six
	// primitive-function nodes; SweptWeights is a_r/ξ in closed form.
	for _, xi := range []float64{1e-6, 1e-3, 0.1, 0.37, 0.5, 0.9, 0.999999, 1} {
		var ell [6]float64
		for m := range ell {
			var w [6]float64
			w[m] = 1
			ell[m] = quintic(&w, 3-xi)
		}
		got := SweptWeights(xi)
		suffix, total := 0.0, 0.0
		for r := 4; r >= 0; r-- {
			suffix += ell[r+1]
			a := -suffix
			if r <= 2 {
				// 1 − Σ_{m>r} ℓ_m = Σ_{m≤r} ℓ_m (partition of unity), which
				// avoids cancelling against 1 at small ξ.
				a = 0
				for m := 0; m <= r; m++ {
					a += ell[m]
				}
			}
			if d := math.Abs(got[r] - a/xi); d > 1e-14/xi {
				t.Fatalf("ξ=%v: weight %d = %v, Lagrange form %v", xi, r, got[r], a/xi)
			}
			total += got[r]
		}
		if math.Abs(total-1) > 1e-14 {
			t.Fatalf("ξ=%v: weights sum to %v, want 1 (a constant is its own average)", xi, total)
		}
	}
	up := SweptWeights(0)
	for r, want := range [5]float64{2, -13, 47, 27, -3} {
		if math.Abs(up[r]-want/60) > 1e-15 {
			t.Fatalf("ξ=0: weight %d = %v, want %v/60", r, up[r], want)
		}
	}
}

func TestStepLinesBitIdenticalToPerLine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 300; it++ {
		n := 6 + rng.Intn(30)
		nLines := 1 + rng.Intn(12)
		c := randomCFL(rng)
		batch := make([]float64, 0, n*nLines)
		for l := 0; l < nLines; l++ {
			batch = append(batch, randomLine(rng, n)...)
		}
		for _, open := range []bool{false, true} {
			got := append([]float64(nil), batch...)
			want := append([]float64(nil), batch...)
			one, many := NewSLMPP5(), NewSLMPP5()
			var err error
			if open {
				err = many.StepLinesOpen(got, n, c)
			} else {
				err = many.StepLines(got, n, c)
			}
			if err != nil {
				t.Fatal(err)
			}
			for l := 0; l < nLines; l++ {
				line := want[l*n : (l+1)*n]
				if open {
					err = one.StepOpen(line, c)
				} else {
					err = one.Step(line, c)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d c=%v open=%v: batched value %d = %v, per line %v", n, c, open, i, got[i], want[i])
				}
			}
		}
	}
	if err := NewSLMPP5().StepLines(make([]float64, 25), 8, 0.3); err == nil {
		t.Fatal("a batch that is not whole lines was accepted")
	}
}

func TestInvalidCFLRejected(t *testing.T) {
	s := NewSLMPP5()
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := sineLine(16)
		want := append([]float64(nil), f...)
		for name, step := range map[string]func([]float64, float64) error{"Step": s.Step, "StepOpen": s.StepOpen} {
			if err := step(f, c); err == nil {
				t.Fatalf("%s accepted CFL %v", name, c)
			}
			for i := range f {
				if f[i] != want[i] {
					t.Fatalf("%s modified the line before rejecting CFL %v", name, c)
				}
			}
		}
	}
}

func TestHugeCFLIsBoundedByTheLine(t *testing.T) {
	// |c| ≫ n must cost O(n), not O(|c|): a periodic line drops the whole
	// rotations, an open line is simply empty.
	s := NewSLMPP5()
	for _, c := range []float64{1e6 + 0.25, -1e6 - 0.25, 3e15, -1e300, math.MaxFloat64} {
		n := 16
		f := sineLine(n)
		m0 := sum(f)
		if err := s.Step(f, c); err != nil {
			t.Fatalf("Step(c=%v): %v", c, err)
		}
		if cap(s.pad) > 2*n+8 {
			t.Fatalf("Step(c=%v) grew the pad to %d cells for a %d-cell line", c, cap(s.pad), n)
		}
		if d := math.Abs(sum(f) - m0); d > 1e-10 {
			t.Fatalf("Step(c=%v): mass drift %v", c, d)
		}
		// Whole rotations drop out: the same line moved by c mod n.
		want := sineLine(n)
		if err := s.Step(want, math.Mod(c, float64(n))); err != nil {
			t.Fatal(err)
		}
		for i := range f {
			if math.Abs(f[i]-want[i]) > 1e-9 {
				t.Fatalf("Step(c=%v): cell %d = %v, want %v", c, i, f[i], want[i])
			}
		}
		g := sineLine(n)
		if err := s.StepOpen(g, c); err != nil {
			t.Fatalf("StepOpen(c=%v): %v", c, err)
		}
		if cap(s.pad) > 2*n+8 {
			t.Fatalf("StepOpen(c=%v) grew the pad to %d cells for a %d-cell line", c, cap(s.pad), n)
		}
		for i, v := range g {
			if v != 0 {
				t.Fatalf("StepOpen(c=%v): cell %d = %v, want an empty line", c, i, v)
			}
		}
	}
	// The bound itself: n+2 whole cells already empty an open line, so the
	// clamp at n+3 changes nothing.
	for _, c := range []float64{18, 18.5, 19, 19.5, -18, -19.5, 25} {
		g := sineLine(16)
		want := append([]float64(nil), g...)
		limited.step(want, c, zeroAt)
		if err := s.StepOpen(g, c); err != nil {
			t.Fatal(err)
		}
		for i := range g {
			if g[i] != 0 || math.Abs(want[i]) > 1e-12 {
				t.Fatalf("StepOpen(c=%v): cell %d = %v (oracle %v), want 0", c, i, g[i], want[i])
			}
		}
	}
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	s := NewSLMPP5()
	line := sineLine(32)
	batch := make([]float64, 0, 8*32)
	for l := 0; l < 8; l++ {
		batch = append(batch, sineLine(32)...)
	}
	calls := map[string]func() error{
		"Step":          func() error { return s.Step(line, -1.7) },
		"StepOpen":      func() error { return s.StepOpen(line, 0.4) },
		"StepLines":     func() error { return s.StepLines(batch, 32, 2.3) },
		"StepLinesOpen": func() error { return s.StepLinesOpen(batch, 32, -0.6) },
	}
	for name, call := range calls {
		if err := call(); err != nil { // warm-up sizes the pad
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Fatalf("%s allocates %.1f allocs/op after warm-up, want 0", name, a)
		}
	}
}

// The sweeps' own shape: ten-cell lines, |c| < 1, a hundred lines per CFL.
func BenchmarkStepOpen10(b *testing.B) {
	s := NewSLMPP5()
	line := sineLine(10)
	for i := 0; i < b.N; i++ {
		c := 0.37
		if i&1 == 1 {
			c = -0.37
		}
		if err := s.StepOpen(line, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStep10(b *testing.B) {
	s := NewSLMPP5()
	line := sineLine(10)
	for i := 0; i < b.N; i++ {
		c := 0.37
		if i&1 == 1 {
			c = -0.37
		}
		if err := s.Step(line, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepLinesOpen100x10(b *testing.B) {
	s := NewSLMPP5()
	batch := make([]float64, 0, 1000)
	for l := 0; l < 100; l++ {
		batch = append(batch, sineLine(10)...)
	}
	for i := 0; i < b.N; i++ {
		c := 0.37
		if i&1 == 1 {
			c = -0.37
		}
		if err := s.StepLinesOpen(batch, 10, c); err != nil {
			b.Fatal(err)
		}
	}
}
