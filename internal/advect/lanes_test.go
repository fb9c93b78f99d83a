package advect

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"vlasov6d/internal/cpuid"
)

// laneValue draws one cell value: mostly non-negative values of mixed
// scale, with exact ±0, subnormals of either sign and negative values.
func laneValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		v := math.Float64frombits(1 + rng.Uint64()&(1<<52-2)) // subnormal
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	case 3:
		return -rng.Float64() * 1e3
	case 4:
		return rng.Float64() * 1e-6
	default:
		return rng.Float64() * 10
	}
}

// laneLayout is where StepLanes finds its four lines in data.
type laneLayout struct{ off, laneStride, cellStride int }

// laneData fills a slice that holds the layout's four lines of n cells,
// and values between and after them.
func laneData(rng *rand.Rand, l laneLayout, n int) []float64 {
	data := make([]float64, l.off+3*l.laneStride+(n-1)*l.cellStride+3)
	for i := range data {
		data[i] = laneValue(rng)
	}
	return data
}

// checkLanes steps the four lines of data through s.StepLanes and, on a
// copy, each line through Step or StepOpen, and fails on any value whose
// bits differ, the values of data outside the lines included.
func checkLanes(t testing.TB, s *SLMPP5, data []float64, l laneLayout, n int, c [4]float64, open bool) {
	t.Helper()
	want := append([]float64(nil), data...)
	ref, line := NewSLMPP5(), make([]float64, n)
	for k, ck := range c {
		base := l.off + k*l.laneStride
		for i := range line {
			line[i] = want[base+i*l.cellStride]
		}
		step := ref.Step
		if open {
			step = ref.StepOpen
		}
		if err := step(line, ck); err != nil {
			t.Fatal(err)
		}
		for i, v := range line {
			want[base+i*l.cellStride] = v
		}
	}
	if err := s.StepLanes(data, l.off, l.laneStride, l.cellStride, n, &c, open); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Float64bits(data[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d %+v c=%v open=%v: value %d = %v (%#x), per-line %v (%#x)",
				n, l, c, open, i, data[i], math.Float64bits(data[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// withLaneKernel runs fn with the vector kernel off and, where the CPU has
// AVX2, on.
func withLaneKernel(t *testing.T, fn func(t *testing.T)) {
	saved := laneKernel
	defer func() { laneKernel = saved }()
	for _, on := range []bool{false, true} {
		if on && !cpuid.AVX2() {
			t.Log("no AVX2 on this CPU: only the per-line path ran")
			continue
		}
		laneKernel = on
		name := "go"
		if on {
			name = "avx2"
		}
		t.Run(name, fn)
	}
}

// TestStepLanesMatchesPerLine: every line StepLanes advances ends bit for
// bit as Step/StepOpen leaves it, on the plasma drift's layout (lanes
// adjacent, cells strided) and the kick's (lanes strided, cells adjacent),
// with lanes that share shift and direction and lanes that do not, whole
// and zero CFL numbers among them, periodic and open; one scheme serves
// every case, so its scratch is reused across line lengths. The kick's
// layout moves its rows four at a time by a 4×4 transpose and the n % 4
// left over one by one: n = 64, 65, 6 and 7 leave 0, 1, 2 and 3 rows, in
// both directions (the rightward and the mirrored shared shifts).
func TestStepLanesMatchesPerLine(t *testing.T) {
	cfls := [][4]float64{
		{0.3, 0.31, 0.32, 0.33},     // one shift, rightward: one copy per pad row
		{-2.3, -2.4, -2.5, -2.6},    // one shift, mirrored
		{3.3, 3.4, 3.5, 3.6},        // one shift of three: the interior starts past row n+2
		{-4.2, -4.4, -4.6, -4.8},    // one shift of four, mirrored
		{-0.4, 0.2, -1.7, 2.3},      // mixed shifts and directions
		{-130.6, 5.5, 64.25, -0.01}, // shifts beyond the line
		{1, 0.5, 0.5, 0.5},          // an exact shift: all four per line
		{0, 0.3, 0.3, 0.3},          // a zero CFL: all four per line
	}
	withLaneKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		s := NewSLMPP5()
		for _, n := range []int{64, 6, 7, 10, 65} {
			layouts := []laneLayout{{0, 1, 4}, {3, 1, 9}, {0, n, 1}, {2, n + 2, 1}}
			for _, l := range layouts {
				for _, c := range cfls {
					for _, open := range []bool{false, true} {
						checkLanes(t, s, laneData(rng, l, n), l, n, c, open)
					}
				}
			}
		}
	})
}

func TestStepLanesRejectsBadLayouts(t *testing.T) {
	s, data, c := NewSLMPP5(), make([]float64, 64), [4]float64{0.3, 0.3, 0.3, 0.3}
	for _, l := range []struct {
		laneLayout
		n int
	}{
		{laneLayout{0, 0, 8}, 8},  // lane stride 0
		{laneLayout{0, 1, 0}, 8},  // cell stride 0
		{laneLayout{-1, 1, 8}, 8}, // before the data
		{laneLayout{1, 1, 9}, 8},  // past its end
		{laneLayout{0, 2, 1}, 8},  // lanes overlap
		{laneLayout{0, 3, 2}, 8},  // lanes 2 apart share a cell
		{laneLayout{0, 1, 4}, 5},  // shorter than the stencil
	} {
		if err := s.StepLanes(data, l.off, l.laneStride, l.cellStride, l.n, &c, false); err == nil {
			t.Errorf("%+v, n %d: no error", l.laneLayout, l.n)
		}
	}
	if err := s.StepLanes(data, 0, 1, 4, 8, &[4]float64{0.3, math.NaN(), 0.3, 0.3}, true); err == nil {
		t.Error("a NaN CFL number: no error")
	}
}

// FuzzStepLanes holds StepLanes to per-line Step/StepOpen bit for bit on
// lines of 6–300 cells in either layout, any four finite CFL numbers and
// values with ±0, subnormals and negatives.
func FuzzStepLanes(f *testing.F) {
	f.Add(uint16(64), uint8(0), 0.3, 0.31, 0.32, 0.33, false, int64(1))
	f.Add(uint16(10), uint8(1), -0.4, 0.2, -1.7, 2.3, true, int64(2))
	f.Add(uint16(300), uint8(7), -1e9-0.5, 3.0, 0.0, 17.25, false, int64(3))
	f.Add(uint16(6), uint8(0x32), -2.3, -2.4, -2.5, -2.6, true, int64(4))
	f.Add(uint16(58), uint8(0), 3.3, 3.4, 3.5, 3.6, true, int64(5))
	f.Add(uint16(20), uint8(1), -4.2, -4.4, -4.6, -4.8, false, int64(6))
	f.Fuzz(func(t *testing.T, nb uint16, layout uint8, c0, c1, c2, c3 float64, open bool, seed int64) {
		c := [4]float64{c0, c1, c2, c3}
		for _, ck := range c {
			if math.IsNaN(ck) || math.IsInf(ck, 0) {
				return
			}
		}
		n := 6 + int(nb)%295
		l := laneLayout{off: int(layout>>4) % 3, laneStride: 1, cellStride: 4 + int(layout>>1)%5}
		if layout&1 == 1 {
			l.laneStride, l.cellStride = n+int(layout>>1)%3, 1
		}
		rng := rand.New(rand.NewSource(seed))
		checkLanes(t, NewSLMPP5(), laneData(rng, l, n), l, n, c, open)
	})
}

// limitedV is advance's swept average of lane k at interface i of the
// lane pad q, limiter included: the Go form each lane of laneLimit must
// equal bit for bit.
func limitedV(q [][4]float64, lc *laneCoef, i, k int) float64 {
	m2, m1, c0, p1, p2 := q[i][k], q[i+1][k], q[i+2][k], q[i+3][k], q[i+4][k]
	v := lc.w[0][k]*m2 + lc.w[1][k]*m1 + lc.w[2][k]*c0 + lc.w[3][k]*p1 + lc.w[4][k]*p2
	if fMP := c0 + minmod2(p1-c0, lc.alpha[k]*(c0-m1)); (v-c0)*(v-fMP) > mpEps {
		v = mpBound(v, m2, m1, c0, p1, p2, lc.alpha[k])
	}
	return v
}

// TestLaneLimitAcceptBoundary pins the vector accept test to advance's
// (v−c0)·(v−fMP) > mpEps at the boundary no random line reaches: with
// weights (1, 0, 0, 0, 0), v = m2, and the stencil (m2, 1, 0, −1, 0) at
// α = 1 gives fMP = −1, so the product is m2·(m2+1), exactly mpEps for
// lane 0, just above it for lane 1. Lanes 1 and 3 reject and leave with
// mpBound's value, lanes 0 and 2 accept and leave with v; on lanes 0 and
// 1 the two differ.
func TestLaneLimitAcceptBoundary(t *testing.T) {
	if !cpuid.AVX2() {
		t.Skip("no AVX2 on this CPU: no vector kernel to test")
	}
	m2 := [4]float64{mpEps, math.Nextafter(mpEps, 1), -mpEps, 2}
	q := make([][4]float64, 5)
	var lc laneCoef
	lc.eps = mpEps
	for k := range m2 {
		q[0][k], q[1][k], q[2][k], q[3][k], q[4][k] = m2[k], 1, 0, -1, 0
		lc.w[0][k], lc.alpha[k] = 1, 1
	}
	v := make([][4]float64, 1)
	laneLimit(q, v, &lc)
	var rejected uint8
	for k := range m2 {
		want := limitedV(q, &lc, 0, k)
		if bound := mpBound(m2[k], m2[k], 1, 0, -1, 0, 1); k < 2 && bound == m2[k] {
			t.Fatalf("lane %d: mpBound leaves v = %v: the test cannot tell accept from reject", k, bound)
		}
		if want != m2[k] {
			rejected |= 1 << k
		}
		if math.Float64bits(v[0][k]) != math.Float64bits(want) {
			t.Errorf("lane %d: v = %v, advance's %v", k, v[0][k], want)
		}
	}
	if rejected != 0b1010 {
		t.Fatalf("advance's test rejects lanes %04b, want 1010", rejected)
	}
}

// boundValue draws one stencil value for TestLaneLimitMatchesMPBound:
// ±0, small integers (ties), subnormals, negatives, and values near the
// largest float, whose differences overflow inside mpBound and reach its
// minmods, mins and maxes as ±Inf and NaN.
func boundValue(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0, 1:
		return math.Copysign(0, float64(rng.Intn(2)*2-1))
	case 2, 3:
		return float64(rng.Intn(5) - 2)
	case 4:
		return math.Copysign(math.Float64frombits(1+rng.Uint64()&(1<<52-2)), float64(rng.Intn(2)*2-1))
	case 5:
		return math.Copysign(math.MaxFloat64*(0.25+0.75*rng.Float64()), float64(rng.Intn(2)*2-1))
	default:
		return laneValue(rng)
	}
}

// TestLaneLimitMatchesMPBound holds every lane of laneLimit to advance's
// limited swept average bit for bit, NaN included, with mpBound reached on
// any subset of the four lanes: a lane that accepts must keep v's bits
// while its neighbours take the bound. The stencils are hand-built signed
// zeros around v = ±1 (every min and max of mpBound meets a ±0 tie) and
// random draws of boundValue at α ∈ {4, 1, 0.25}; weights are (1, 0, 0,
// 0, 0), which makes v = m2 free, or SweptWeights of a random ξ.
//
// A ±0 tie in mpBound's mins and maxes cannot change its result: the
// bounds enter only as fmin − v and fmax − v, and v + (±0 − v) is +0 for
// either zero. The overflowing stencils are what tell Go's min and max
// from a bare MINPD/MAXPD, which return their second source on a NaN.
func TestLaneLimitMatchesMPBound(t *testing.T) {
	if !cpuid.AVX2() {
		t.Skip("no AVX2 on this CPU: no vector kernel to test")
	}
	rng := rand.New(rand.NewSource(50))
	const rows = 64
	q, v := make([][4]float64, rows+4), make([][4]float64, rows)
	var lc laneCoef
	lc.eps = mpEps
	var mixed, bounded, nan int
	check := func(name string) {
		t.Helper()
		laneLimit(q, v, &lc)
		for i := range v {
			var m uint8
			for k := range 4 {
				want := limitedV(q, &lc, i, k)
				got := v[i][k]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: interface %d lane %d: %v (%#x), advance's %v (%#x); stencil %v %v %v %v %v, α %v",
						name, i, k, got, math.Float64bits(got), want, math.Float64bits(want),
						q[i][k], q[i+1][k], q[i+2][k], q[i+3][k], q[i+4][k], lc.alpha[k])
				}
				if x := lc.w[0][k]*q[i][k] + lc.w[1][k]*q[i+1][k] + lc.w[2][k]*q[i+2][k] + lc.w[3][k]*q[i+3][k] + lc.w[4][k]*q[i+4][k]; math.Float64bits(x) != math.Float64bits(want) {
					m |= 1 << k
					if math.IsNaN(want) {
						nan++
					}
				}
			}
			if m != 0 {
				bounded++
				if m != 0b1111 {
					mixed++
				}
			}
		}
	}

	// Signed zeros: lane k of row r holds one of the 16 sign patterns of
	// (m1, c0, p1, p2), v = m2 = ±1 or a subnormal.
	for k := range 4 {
		lc.w[0][k], lc.w[1][k], lc.w[2][k], lc.w[3][k], lc.w[4][k] = 1, 0, 0, 0, 0
		lc.alpha[k] = []float64{4, 1, 0.25, 1}[k]
	}
	for i := range v {
		for k := range 4 {
			pattern := (i*4 + k) % 16
			for j := 1; j < 5; j++ {
				q[i+j][k] = math.Copysign(0, float64(pattern>>(j-1)&1*2-1))
			}
			q[i][k] = []float64{1, -1, 0x1p-1070, -0x1p-1070}[(i/4+k)%4]
		}
		laneLimit(q[i:i+5], v[i:i+1], &lc)
		for k := range 4 {
			if want := limitedV(q, &lc, i, k); math.Float64bits(v[i][k]) != math.Float64bits(want) {
				t.Fatalf("signed zeros, row %d lane %d: %v, advance's %v", i, k, v[i][k], want)
			}
		}
	}

	for trial := range 400 {
		for k := range 4 {
			lc.alpha[k] = []float64{4, 1, 0.25}[rng.Intn(3)]
			w := [5]float64{1, 0, 0, 0, 0}
			if trial%2 == 1 {
				w = SweptWeights(rng.Float64())
			}
			for r := range w {
				lc.w[r][k] = w[r]
			}
		}
		for i := range q {
			for k := range 4 {
				q[i][k] = boundValue(rng)
			}
		}
		check("random")
	}
	if mixed == 0 || bounded == 0 || nan == 0 {
		t.Fatalf("coverage: %d interfaces bounded, %d on some lanes only, %d NaN bounds; want each > 0", bounded, mixed, nan)
	}
	t.Logf("%d interfaces bounded, %d on some lanes only, %d NaN bounds", bounded, mixed, nan)
}

// TestLaneCoefLayout holds laneCoef to the offsets lanes_amd64.s reads.
func TestLaneCoefLayout(t *testing.T) {
	var lc laneCoef
	got := [4]uintptr{unsafe.Offsetof(lc.w), unsafe.Offsetof(lc.xi), unsafe.Offsetof(lc.alpha), unsafe.Offsetof(lc.eps)}
	if got != [4]uintptr{0, 160, 192, 224} {
		t.Fatalf("laneCoef offsets w, xi, alpha, eps = %v, want [0 160 192 224]", got)
	}
}
