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

// checkStrided runs StepStrided on data and requires every line to equal
// Step (StepOpen with open) on that line widened to float64, rounded back
// to float32, bit for bit, and lost to equal Σbefore − Σafter summed in
// offs order, then cell order, over the unrounded results.
func checkStrided(t *testing.T, data []float32, offs []int, stride, n int, c float64, open bool) {
	t.Helper()
	want := append([]float32(nil), data...)
	one := NewSLMPP5()
	line := make([]float64, n)
	var before, after float64
	for _, off := range offs {
		for i := range line {
			line[i] = float64(want[off+i*stride])
			before += line[i]
		}
		step := one.Step
		if open {
			step = one.StepOpen
		}
		if err := step(line, c); err != nil {
			t.Fatal(err)
		}
		for i, v := range line {
			want[off+i*stride] = float32(v)
			after += v
		}
	}
	wantLost := 0.0
	if open {
		wantLost = before - after
	}
	lost, err := NewSLMPP5().StepStrided(data, offs, stride, n, c, open)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Float32bits(data[i]) != math.Float32bits(want[i]) {
			t.Fatalf("n=%d stride=%d c=%v open=%v: value %d = %v, per line %v", n, stride, c, open, i, data[i], want[i])
		}
	}
	if math.Float64bits(lost) != math.Float64bits(wantLost) {
		t.Fatalf("n=%d stride=%d c=%v open=%v: lost %v, per line %v", n, stride, c, open, lost, wantLost)
	}
}

// stridedLines lays out nLines lines of n cells at the given stride the way
// the 6D grid does: stride interleaved lines per block of n·stride values.
// It returns the data, drawn by randomLine, and the lines' first cells in a
// shuffled order.
func stridedLines(rng *rand.Rand, n, nLines, stride int) ([]float32, []int) {
	blocks := (nLines + stride - 1) / stride
	data := make([]float32, blocks*n*stride)
	for i, v := range randomLine(rng, len(data)) {
		data[i] = float32(v)
	}
	offs := make([]int, 0, nLines)
	for _, m := range rng.Perm(blocks * stride)[:nLines] {
		offs = append(offs, m/stride*n*stride+m%stride)
	}
	return data, offs
}

func TestStepStridedBitIdenticalToPerLine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 300; it++ {
		n := 6 + rng.Intn(30)
		nLines := 1 + rng.Intn(12)
		stride := 1 + rng.Intn(5)
		c := randomCFL(rng)
		data, offs := stridedLines(rng, n, nLines, stride)
		for _, open := range []bool{false, true} {
			checkStrided(t, append([]float32(nil), data...), offs, stride, n, c, open)
		}
	}
	s := NewSLMPP5()
	for _, bad := range []struct {
		offs   []int
		stride int
	}{{[]int{0, 18}, 3}, {[]int{-1}, 3}, {[]int{0}, 0}} {
		data := make([]float32, 24)
		data[0] = 1
		if _, err := s.StepStrided(data, bad.offs, bad.stride, 8, 0.3, false); err == nil {
			t.Fatalf("lines at %v, stride %d, accepted in %d values", bad.offs, bad.stride, len(data))
		}
		if data[0] != 1 {
			t.Fatal("a rejected call modified the data")
		}
	}
}

// FuzzStepStrided holds the strided entry to the per-line one: from the
// fuzz input it lays out 1–16 disjoint lines of 6–40 cells at stride 1–8,
// steps them by a finite CFL number of any sign and magnitude, periodic or
// open, and checkStrided requires the per-line results bit for bit and the
// exact loss.
func FuzzStepStrided(f *testing.F) {
	f.Add(uint8(4), uint8(9), uint8(2), 0.37, true, int64(1))
	f.Add(uint8(0), uint8(0), uint8(0), -2.0, false, int64(2))
	f.Add(uint8(34), uint8(15), uint8(7), -1e9-0.5, true, int64(3))
	f.Fuzz(func(t *testing.T, nb, lines, sb uint8, c float64, open bool, seed int64) {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return
		}
		n, nLines, stride := 6+int(nb)%35, 1+int(lines)%16, 1+int(sb)%8
		data, offs := stridedLines(rand.New(rand.NewSource(seed)), n, nLines, stride)
		checkStrided(t, data, offs, stride, n, c, open)
	})
}

// sineAverages returns the exact averages of 1 + ½·sin(2πx/n) over the n
// unit cells [i − shift, i + 1 − shift).
func sineAverages(n int, shift float64) []float64 {
	f := make([]float64, n)
	k := 2 * math.Pi / float64(n)
	for i := range f {
		x := float64(i) - shift
		f[i] = 1 + 0.5*(math.Cos(k*x)-math.Cos(k*(x+1)))/k
	}
	return f
}

// TestShiftMatchesExactCellAverages is the kernel's accuracy referee: a
// smooth periodic line shifted by 0.8 cells in N equal steps, against the
// exact cell averages of the shifted profile. Each step adds its own
// reconstruction error, so the error grows with N; the bounds pin that
// growth (a kernel change that adds diffusion per step fails them) and the
// fifth-order fall with resolution. The n = 10 line also runs through
// StepStrided on float32 storage, as the 6D sweeps hold it.
func TestShiftMatchesExactCellAverages(t *testing.T) {
	newScheme := func() Scheme { return NewSLMPP5() }
	const shift = 0.8
	maxErr := func(n, steps int, f32 bool) float64 {
		f, s := sineAverages(n, 0), newScheme()
		step := func(c float64) error { return s.Step(f, c) }
		data, line := make([]float32, n), make([]float64, n)
		if f32 {
			for i, v := range f {
				data[i] = float32(v)
			}
			step = func(c float64) error { return StepStrided(s, line, data, []int{0}, 1, n, c) }
		}
		for k := 0; k < steps; k++ {
			if err := step(shift / float64(steps)); err != nil {
				t.Fatal(err)
			}
		}
		e := 0.0
		for i, want := range sineAverages(n, shift) {
			got := f[i]
			if f32 {
				got = float64(data[i])
			}
			e = max(e, math.Abs(got-want))
		}
		return e
	}
	for _, f32 := range []bool{false, true} {
		e1, e64 := maxErr(10, 1, f32), maxErr(10, 64, f32)
		t.Logf("float32=%v n=10: max error %.3g at N=1, %.3g at N=64", f32, e1, e64)
		if e64 > 4e-4 {
			t.Errorf("float32=%v n=10 N=64: max error %.3g > 4e-4", f32, e64)
		}
		if e64 > 5*e1 {
			t.Errorf("float32=%v n=10: N=64 error %.3g > 5× the N=1 error %.3g", f32, e64, e1)
		}
	}
	prev := maxErr(10, 64, false)
	for _, n := range []int{20, 40} {
		e := maxErr(n, 64, false)
		t.Logf("n=%d N=64: max error %.3g", n, e)
		if prev < 32*e {
			t.Errorf("n=%d N=64: max error %.3g, only %.1f× below n=%d's", n, e, prev/e, n/2)
		}
		prev = e
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
	s, up := NewSLMPP5(), NewUpwind1()
	line := sineLine(32)
	// Eight lines of 32 cells at stride 8, as a velocity cube holds them.
	data, offs := make([]float32, 8*32), []int{0, 1, 2, 3, 4, 5, 6, 7}
	for i, v := range sineLine(len(data)) {
		data[i] = float32(v)
	}
	lanes := sineLine(15 * 32)
	drift, kick, mixed := make([]float64, 15), make([]float64, 15), make([]float64, 15)
	for k := range drift {
		drift[k] = 0.3 + 0.01*float64(k)
		kick[k] = -0.2 - 0.01*float64(k)
		mixed[k] = []float64{-2.3, 0.4, 1.5, 0.1}[k%4]
	}
	calls := map[string]func() error{
		"Step":     func() error { return s.Step(line, -1.7) },
		"StepOpen": func() error { return s.StepOpen(line, 0.4) },
		"StepStrided": func() error {
			_, err := s.StepStrided(data, offs, 8, 32, 2.3, false)
			return err
		},
		"StepStrided open": func() error {
			_, err := s.StepStrided(data, offs, 8, 32, -0.6, true)
			return err
		},
		"advect.StepStrided upwind1": func() error { return StepStrided(up, line, data, offs, 8, 32, 0.6) },
		// Fifteen lines of 32 cells (a group of eight, one of four and three
		// left over at eight lanes), as the plasma drift (lanes adjacent)
		// and kick (cells adjacent) hand them over.
		"StepLanes":       func() error { return s.StepLanes(lanes, 0, 1, 15, 32, drift, false) },
		"StepLanes open":  func() error { return s.StepLanes(lanes, 0, 32, 1, 32, kick, true) },
		"StepLanes mixed": func() error { return s.StepLanes(lanes, 0, 1, 15, 32, mixed, false) },
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

// A kick's shape: the 100 lines of a 10³ velocity cube along ux.
func BenchmarkStepStridedOpen100x10(b *testing.B) {
	s := NewSLMPP5()
	cube, offs := make([]float32, 1000), make([]int, 100)
	for i, v := range sineLine(len(cube)) {
		cube[i] = float32(v)
	}
	for l := range offs {
		offs[l] = l
	}
	for i := 0; i < b.N; i++ {
		c := 0.37
		if i&1 == 1 {
			c = -0.37
		}
		if _, err := s.StepStrided(cube, offs, 100, 10, c, true); err != nil {
			b.Fatal(err)
		}
	}
}
