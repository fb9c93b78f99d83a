package advect

import (
	"fmt"
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

// laneLayout is where StepLanes finds its lines in data.
type laneLayout struct{ off, laneStride, cellStride int }

// laneData fills a slice that holds the layout's lanes lines of n cells,
// and values between and after them.
func laneData(rng *rand.Rand, l laneLayout, lanes, n int) []float64 {
	data := make([]float64, l.off+(lanes-1)*l.laneStride+(n-1)*l.cellStride+3)
	for i := range data {
		data[i] = laneValue(rng)
	}
	return data
}

// checkLanes steps the len(c) lines of data through s.StepLanes and, on a
// copy, each line through Step or StepOpen, and fails on any value whose
// bits differ, the values of data outside the lines included.
func checkLanes(t testing.TB, s *SLMPP5, data []float64, l laneLayout, n int, c []float64, open bool) {
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
	if err := s.StepLanes(data, l.off, l.laneStride, l.cellStride, n, c, open); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Float64bits(data[i]) != math.Float64bits(want[i]) {
			t.Fatalf("width %d, n=%d %+v c=%v open=%v: value %d = %v (%#x), per-line %v (%#x)",
				laneWidth, n, l, c, open, i, data[i], math.Float64bits(data[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// laneWidths are the widths laneWidth may take on this CPU: 0 (every line
// per line) always, 4 with AVX2, 8 with AVX-512.
func laneWidths(t testing.TB) []int {
	widths := []int{0}
	if cpuid.AVX2() {
		widths = append(widths, 4)
	} else {
		t.Log("no AVX2 on this CPU: the four-lane kernel did not run")
	}
	if cpuid.AVX512() {
		widths = append(widths, 8)
	} else {
		t.Log("no AVX-512 on this CPU: the eight-lane kernel did not run")
	}
	return widths
}

// withLaneKernel runs fn at every lane width the CPU has: per line (go),
// four lanes (avx2) and eight (avx512).
func withLaneKernel(t *testing.T, fn func(t *testing.T)) {
	saved := laneWidth
	defer func() { laneWidth = saved }()
	for _, w := range laneWidths(t) {
		laneWidth = w
		t.Run(map[int]string{0: "go", 4: "avx2", 8: "avx512"}[w], fn)
	}
}

// laneCFLs spreads the CFL pattern p over lanes lines: lane k takes p[k %
// len(p)] nudged by k/len(p) thousandths of its fraction, so lanes of one
// pattern entry keep its shift and direction (whole numbers stay whole).
func laneCFLs(p []float64, lanes int) []float64 {
	c := make([]float64, lanes)
	for k := range c {
		ck := p[k%len(p)]
		whole := math.Trunc(ck)
		c[k] = whole + (ck-whole)*(1-float64(k/len(p))*1e-3)
	}
	return c
}

// TestStepLanesMatchesPerLine: every line StepLanes advances ends bit for
// bit as Step/StepOpen leaves it, at every lane width, on the plasma
// drift's layout (lanes adjacent, cells strided) and the kick's (lanes
// strided, cells adjacent), with lanes that share shift and direction and
// lanes that do not, whole and zero CFL numbers among them, periodic and
// open; one scheme serves every case, so its scratch is reused across line
// lengths. 1–7, 9–15 and 19 lanes leave every count of one to seven lines
// past the eight- and four-lane groups. The kick's layout moves its rows
// a block at a time by a 4×4 or 8×8 transpose and the n % 4 or n % 8 left
// over one by one: n = 64, 65, 6, 7, 10, 71 leave 0 to 7 rows, in both
// directions (the rightward and the mirrored shared shifts).
func TestStepLanesMatchesPerLine(t *testing.T) {
	cfls := [][]float64{
		{0.3, 0.31, 0.32, 0.33},     // one shift, rightward: one copy per pad row
		{-2.3, -2.4, -2.5, -2.6},    // one shift, mirrored
		{3.3, 3.4, 3.5, 3.6},        // one shift of three: the interior starts past row n+2
		{-4.2, -4.4, -4.6, -4.8},    // one shift of four, mirrored
		{-0.4, 0.2, -1.7, 2.3},      // mixed shifts and directions
		{-130.6, 5.5, 64.25, -0.01}, // shifts beyond the line
		{1, 0.5, 0.5, 0.5},          // an exact shift: the group goes per line
		{0, 0.3, 0.3, 0.3},          // a zero CFL: the group goes per line
	}
	withLaneKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		s := NewSLMPP5()
		for _, n := range []int{64, 6, 7, 10, 65, 71} {
			for _, lanes := range []int{8, 4, 1, 2, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 19} {
				layouts := []laneLayout{{0, 1, lanes}, {3, 1, lanes + 5}, {0, n, 1}, {2, n + 2, 1}}
				for _, l := range layouts {
					for _, p := range cfls {
						for _, open := range []bool{false, true} {
							checkLanes(t, s, laneData(rng, l, lanes, n), l, n, laneCFLs(p, lanes), open)
						}
					}
				}
			}
		}
	})
}

func TestStepLanesRejectsBadLayouts(t *testing.T) {
	s, data, c := NewSLMPP5(), make([]float64, 64), []float64{0.3, 0.3, 0.3, 0.3}
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
		{laneLayout{0, 6, 4}, 8},  // lanes 2 apart share a cell
		{laneLayout{0, 1, 3}, 8},  // lanes 3 apart share a cell
	} {
		if err := s.StepLanes(data, l.off, l.laneStride, l.cellStride, l.n, c, false); err == nil {
			t.Errorf("%+v, n %d: no error", l.laneLayout, l.n)
		}
	}
	if err := s.StepLanes(data, 0, 1, 4, 8, []float64{0.3, math.NaN(), 0.3, 0.3}, true); err == nil {
		t.Error("a NaN CFL number: no error")
	}
	if err := s.StepLanes(data, 0, 1, 8, 8, []float64{0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, math.Inf(1)}, false); err == nil {
		t.Error("an infinite CFL number past the eighth lane: no error")
	}
}

// TestStepLanesRejectsHugeLayouts: offsets, strides and line lengths whose
// last cell, off + (lanes−1)·laneStride + (n−1)·cellStride, overflows an
// int (or is merely far past the data) return an error; none panics.
func TestStepLanesRejectsHugeLayouts(t *testing.T) {
	s, data := NewSLMPP5(), make([]float64, 4096)
	c := []float64{0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3}
	for _, l := range []struct {
		laneLayout
		n int
	}{
		{laneLayout{0, 1 << 61, 1}, 64},                      // 7·2⁶¹ wraps negative
		{laneLayout{0, 1 << 62, 1}, 64},                      // wraps to a small positive extent
		{laneLayout{0, 1, 1 << 61}, 64},                      // 63·2⁶¹ wraps
		{laneLayout{0, 1, 1 << 62}, 6},                       // 5·2⁶² wraps
		{laneLayout{0, 8, 1}, math.MaxInt},                   // n − 1 past the data
		{laneLayout{0, 1, 8}, math.MaxInt / 8},               // (n − 1)·8 just inside an int, past the data
		{laneLayout{math.MaxInt, 1, 8}, 64},                  // off past the data, off + … wraps
		{laneLayout{math.MaxInt - 7, 1, 1 << 40}, 64},        // the same, nearer the top
		{laneLayout{4000, math.MaxInt, math.MaxInt}, 64},     // every term overflows
		{laneLayout{1 << 62, 1 << 62, 1 << 62}, 1 << 62},     // so does every product
		{laneLayout{0, math.MaxInt / 7, 8}, math.MaxInt / 8}, // each term alone fits
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%+v, n %d: panic %v", l.laneLayout, l.n, r)
				}
			}()
			if err := s.StepLanes(data, l.off, l.laneStride, l.cellStride, l.n, c, false); err == nil {
				t.Errorf("%+v, n %d: no error", l.laneLayout, l.n)
			}
		}()
	}
}

// TestStepLanesPlasmaLayouts steps the plasma solver's two layouts at
// every lane width, per line, four lanes and eight, against per-line
// Step/StepOpen (checkLanes, which also holds every value between the
// lines to its bits): the drift's 256 lines of 64 cells, lanes adjacent
// and cells a row stride apart, periodic, with c from −2.7 to 2.7 (a
// group of mixed directions at the sign change in the middle); and the
// kick's 64 open lines of 256 cells, lanes a row stride apart and cells
// adjacent, with c of a sine field, both signs. The row stride is the
// unpadded 256 and the solver's 264; FuzzStepLanes' strides stay far
// below either.
func TestStepLanesPlasmaLayouts(t *testing.T) {
	const nx, nv = 64, 256
	withLaneKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(57))
		s := NewSLMPP5()
		for _, stride := range []int{256, 264} {
			drift, kick := make([]float64, nv), make([]float64, nx)
			for _, sign := range []float64{1, -1} {
				for j := range drift {
					drift[j] = sign * 2.7 * (float64(j) + 0.5 - nv/2) / (nv / 2)
				}
				for i := range kick {
					kick[i] = sign * 1.9 * math.Sin(2*math.Pi*(float64(i)+0.5)/nx)
				}
				l := laneLayout{0, 1, stride}
				checkLanes(t, s, laneData(rng, l, nv, nx), l, nx, drift, false)
				l = laneLayout{0, stride, 1}
				checkLanes(t, s, laneData(rng, l, nx, nv), l, nv, kick, true)
			}
		}
	})
}

// TestLaneRowCopiesCheckBounds: loadRows and storeRows with adjacent lanes
// hand the assembly copies a raw pointer, so a span that reaches one value
// past either end of data must panic in Go before any copy, in both
// directions, and one that fits must copy every row there and back.
func TestLaneRowCopiesCheckBounds(t *testing.T) {
	withLimitKernel(t,
		func(t *testing.T) { checkRowCopyBounds(t, &avx2Lanes) },
		func(t *testing.T) { checkRowCopyBounds(t, &avx512Lanes) })
}

func checkRowCopyBounds[R laneRow](t *testing.T, kern *laneKernels[R]) {
	var r R
	width, step := len(r), 11
	rows := make([]R, 5)
	span := 4*step + width // the values rows reach from their first
	for _, tc := range []struct {
		size, at, step int
		ok             bool
	}{
		{span, 0, step, true},
		{span, span - width, -step, true},
		{span - 1, 0, step, false},             // the last row ends past data
		{span, span - width - 1, -step, false}, // the last row starts before it
		{span, 1, step, false},
	} {
		data := make([]float64, tc.size)
		for i := range data {
			data[i] = float64(i)
		}
		for _, store := range []bool{false, true} {
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				if store { // the rows loadRows left, into zeroed data
					clear(data)
					storeRows(kern, data, tc.at, tc.step, 1, rows)
				} else {
					loadRows(kern, rows, data, tc.at, tc.step, 1)
				}
				return false
			}()
			if panicked == tc.ok {
				t.Fatalf("size %d, at %d, step %d, store %v: panicked %v", tc.size, tc.at, tc.step, store, panicked)
			}
			if !tc.ok {
				continue
			}
			for m := range rows {
				for k := range width {
					if at := tc.at + m*tc.step + k; rows[m][k] != data[at] {
						t.Fatalf("step %d, store %v: row %d lane %d = %v, data[%d] = %v", tc.step, store, m, k, rows[m][k], at, data[at])
					}
				}
			}
		}
	}
}

// WithLaneWidths runs fn at every lane width the CPU has, per line (go),
// four lanes (avx2) and eight (avx512), for the tests of package
// advect_test.
func WithLaneWidths(t *testing.T, fn func(t *testing.T)) { withLaneKernel(t, fn) }

// FuzzStepLanes holds StepLanes to per-line Step/StepOpen bit for bit, at
// every lane width the CPU has, on 1–19 lines of 6–300 cells in either
// layout, four finite CFL patterns spread over the lanes and values with
// ±0, subnormals and negatives (shape 0), or O(1) top-hats (shape 1) and
// sawtooths (shape 2), whose jumps make the limiter reject many values in
// a call: the eight-lane kernel queues them and bounds them eight at a
// time.
func FuzzStepLanes(f *testing.F) {
	f.Add(uint16(64), uint8(0), uint8(7), 0.3, 0.31, 0.32, 0.33, false, int64(1), uint8(0))
	f.Add(uint16(10), uint8(1), uint8(3), -0.4, 0.2, -1.7, 2.3, true, int64(2), uint8(0))
	f.Add(uint16(300), uint8(7), uint8(11), -1e9-0.5, 3.0, 0.0, 17.25, false, int64(3), uint8(0))
	f.Add(uint16(6), uint8(0x32), uint8(15), -2.3, -2.4, -2.5, -2.6, true, int64(4), uint8(0))
	f.Add(uint16(58), uint8(0), uint8(18), 3.3, 3.4, 3.5, 3.6, true, int64(5), uint8(0))
	f.Add(uint16(20), uint8(1), uint8(12), -4.2, -4.4, -4.6, -4.8, false, int64(6), uint8(0))
	f.Add(uint16(64), uint8(0), uint8(15), 0.3, 0.45, -0.6, 0.75, false, int64(7), uint8(1))
	f.Add(uint16(37), uint8(1), uint8(7), 0.3, -0.45, 1.6, -0.75, true, int64(8), uint8(2))
	f.Fuzz(func(t *testing.T, nb uint16, layout, lb uint8, c0, c1, c2, c3 float64, open bool, seed int64, shape uint8) {
		p := []float64{c0, c1, c2, c3}
		for _, ck := range p {
			if math.IsNaN(ck) || math.IsInf(ck, 0) {
				return
			}
		}
		n, lanes := 6+int(nb)%295, 1+int(lb)%19
		l := laneLayout{off: int(layout>>4) % 3, laneStride: 1, cellStride: lanes + int(layout>>1)%5}
		if layout&1 == 1 {
			l.laneStride, l.cellStride = n+int(layout>>1)%3, 1
		}
		saved := laneWidth
		defer func() { laneWidth = saved }()
		for _, w := range laneWidths(t) {
			laneWidth = w
			rng := rand.New(rand.NewSource(seed))
			data := laneData(rng, l, lanes, n)
			if shape%3 != 0 {
				shapeLines(data, l, lanes, n, shape%3 == 1, rng)
			}
			checkLanes(t, NewSLMPP5(), data, l, n, laneCFLs(p, lanes), open)
		}
	})
}

// shapeLines overwrites the lanes lines of data with O(1) jumps: with
// topHat, each line is 1 on a run of its cells and 0 elsewhere, else a
// sawtooth that climbs by 1/4 a cell and drops back every few cells; the
// runs' starts and lengths and the teeth's periods vary with the line.
func shapeLines(data []float64, l laneLayout, lanes, n int, topHat bool, rng *rand.Rand) {
	for k := range lanes {
		lo, width, period := rng.Intn(n), 1+rng.Intn(n), 2+rng.Intn(8)
		for i := range n {
			v := float64((i+k)%period) / 4
			if topHat {
				v = 0
				if (i-lo+n)%n < width {
					v = 1
				}
			}
			data[l.off+k*l.laneStride+i*l.cellStride] = v
		}
	}
}

// sweptV is advance's swept average of lane k at interface i of the lane
// pad q, before the limiter.
func sweptV[R laneRow](q []R, lc *laneCoef[R], i, k int) float64 {
	return lc.w[0][k]*q[i][k] + lc.w[1][k]*q[i+1][k] + lc.w[2][k]*q[i+2][k] + lc.w[3][k]*q[i+3][k] + lc.w[4][k]*q[i+4][k]
}

// rejects reports whether lane k at interface i fails advance's accept
// test, so that the limiter bounds it.
func rejects[R laneRow](q []R, lc *laneCoef[R], i, k int) bool {
	v, m1, c0, p1 := sweptV(q, lc, i, k), q[i+1][k], q[i+2][k], q[i+3][k]
	fMP := c0 + minmod2(p1-c0, lc.alpha[k]*(c0-m1))
	return (v-c0)*(v-fMP) > mpEps
}

// limitedV is advance's swept average of lane k at interface i of the
// lane pad q, limiter included: the Go form each lane of a width's limit
// kernel must equal bit for bit.
func limitedV[R laneRow](q []R, lc *laneCoef[R], i, k int) float64 {
	v := sweptV(q, lc, i, k)
	if rejects(q, lc, i, k) {
		v = mpBound(v, q[i][k], q[i+1][k], q[i+2][k], q[i+3][k], q[i+4][k], lc.alpha[k])
	}
	return v
}

// rejectCount counts the values of interfaces 0..rows−1 that advance's
// accept test rejects.
func rejectCount[R laneRow](q []R, lc *laneCoef[R], rows int) int {
	n := 0
	for i := range rows {
		for k := range len(lc.xi) {
			if rejects(q, lc, i, k) {
				n++
			}
		}
	}
	return n
}

// withLimitKernel runs fn on the limit kernel of every vector width the
// CPU has: laneLimit (avx2) and laneLimit8 (avx512).
func withLimitKernel(t *testing.T, fn4 func(t *testing.T), fn8 func(t *testing.T)) {
	for _, w := range laneWidths(t) {
		switch w {
		case 4:
			t.Run("avx2", fn4)
		case 8:
			t.Run("avx512", fn8)
		}
	}
}

// TestLaneLimitAcceptBoundary pins each vector accept test to advance's
// (v−c0)·(v−fMP) > mpEps at the boundary no random line reaches: with
// weights (1, 0, 0, 0, 0), v = m2, and the stencil (m2, 1, 0, −1, 0) at
// α = 1 gives fMP = −1, so the product is m2·(m2+1), exactly mpEps for
// lane 0, just above it for lane 1. Lanes 1 and 3 (and 5 and 7) reject and
// leave with mpBound's value, lanes 0 and 2 (4 and 6) accept and leave
// with v; on lanes 0 and 1 (4 and 5) the two differ. The boundary row
// comes alone, then last of a call after 1 to 20 rows of falling ramps
// in one to all lanes, most of whose values reject: the eight-lane kernel queues
// rejected values and bounds them eight at a time, and the boundary row's
// rejects land at every place in a batch, the last partial one included.
func TestLaneLimitAcceptBoundary(t *testing.T) {
	withLimitKernel(t,
		func(t *testing.T) { checkAcceptBoundary(t, avx2Lanes.limit) },
		func(t *testing.T) { checkAcceptBoundary(t, avx512Lanes.limit) })
}

func checkAcceptBoundary[R laneRow](t *testing.T, limit func(q, v []R, k *laneCoef[R])) {
	pattern := [4]float64{mpEps, math.Nextafter(mpEps, 1), -mpEps, 2}
	var lc laneCoef[R]
	lc.eps = mpEps
	width := len(lc.xi)
	for k := range width {
		lc.w[0][k], lc.alpha[k] = 1, 1
	}
	var at [8]bool // the boundary row's first reject landed at place j of a batch
	for call := range 21 * width {
		// Rows 0..pre−1 are ramps falling by k+1 a row in lanes k < ramps,
		// zero in the others; the boundary stencil is q[pre..pre+4].
		pre, ramps := call/width, call%width+1
		q := make([]R, pre+5)
		for i := range pre {
			for k := range ramps {
				q[i][k] = float64((pre - i) * (k + 1))
			}
		}
		for k := range width {
			q[pre][k], q[pre+1][k], q[pre+2][k], q[pre+3][k], q[pre+4][k] = pattern[k%4], 1, 0, -1, 0
		}
		v := make([]R, pre+1)
		limit(q, v, &lc)
		for i := range v {
			for k := range width {
				if want := limitedV(q, &lc, i, k); math.Float64bits(v[i][k]) != math.Float64bits(want) {
					t.Fatalf("%d ramp rows: row %d lane %d: v = %v, advance's %v", pre, i, k, v[i][k], want)
				}
			}
		}
		at[rejectCount(q, &lc, pre)%8] = true
		var rejected uint8
		for k := range width {
			m2 := pattern[k%4]
			if bound := mpBound(m2, m2, 1, 0, -1, 0, 1); k%4 < 2 && bound == m2 {
				t.Fatalf("lane %d: mpBound leaves v = %v: the test cannot tell accept from reject", k, bound)
			}
			if rejects(q, &lc, pre, k) {
				rejected |= 1 << k
			}
		}
		if want := uint8(0b10101010) >> (8 - width); rejected != want {
			t.Fatalf("%d ramp rows: advance's test rejects lanes %08b of the boundary row, want %08b", pre, rejected, want)
		}
	}
	if at != [8]bool{true, true, true, true, true, true, true, true} {
		t.Fatalf("the boundary row's rejects start at places %v of a batch of eight; want all eight", at)
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

// TestLaneLimitMatchesMPBound holds every lane of each width's limit
// kernel to advance's limited swept average bit for bit, NaN included,
// with mpBound reached on any subset of the lanes: a lane that accepts
// must keep v's bits while its neighbours take the bound. The stencils are
// hand-built signed zeros around v = ±1 (every min and max of mpBound
// meets a ±0 tie) and random draws of boundValue at α ∈ {4, 1, 0.25};
// weights are (1, 0, 0, 0, 0), which makes v = m2 free, or SweptWeights of
// a random ξ.
//
// A ±0 tie in mpBound's mins and maxes cannot change its result: the
// bounds enter only as fmin − v and fmax − v, and v + (±0 − v) is +0 for
// either zero. The overflowing stencils are what tell Go's min and max
// from a bare MINPD/MAXPD, which return their second source on a NaN.
func TestLaneLimitMatchesMPBound(t *testing.T) {
	withLimitKernel(t,
		func(t *testing.T) { checkLimitMatchesMPBound(t, avx2Lanes.limit) },
		func(t *testing.T) { checkLimitMatchesMPBound(t, avx512Lanes.limit) })
}

func checkLimitMatchesMPBound[R laneRow](t *testing.T, limit func(q, v []R, k *laneCoef[R])) {
	rng := rand.New(rand.NewSource(50))
	const rows = 64
	q, v := make([]R, rows+4), make([]R, rows)
	var lc laneCoef[R]
	lc.eps = mpEps
	width := len(lc.xi)
	all := uint8(1<<width - 1)
	var mixed, bounded, nan int
	check := func(name string) {
		t.Helper()
		limit(q, v, &lc)
		for i := range v {
			var m uint8
			for k := range width {
				want := limitedV(q, &lc, i, k)
				got := v[i][k]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: interface %d lane %d: %v (%#x), advance's %v (%#x); stencil %v %v %v %v %v, α %v",
						name, i, k, got, math.Float64bits(got), want, math.Float64bits(want),
						q[i][k], q[i+1][k], q[i+2][k], q[i+3][k], q[i+4][k], lc.alpha[k])
				}
				if x := sweptV(q, &lc, i, k); math.Float64bits(x) != math.Float64bits(want) {
					m |= 1 << k
					if math.IsNaN(want) {
						nan++
					}
				}
			}
			if m != 0 {
				bounded++
				if m != all {
					mixed++
				}
			}
		}
	}

	// Signed zeros: lane k of row r holds one of the 16 sign patterns of
	// (m1, c0, p1, p2), v = m2 = ±1 or a subnormal.
	for k := range width {
		lc.w[0][k], lc.w[1][k], lc.w[2][k], lc.w[3][k], lc.w[4][k] = 1, 0, 0, 0, 0
		lc.alpha[k] = []float64{4, 1, 0.25, 1}[k%4]
	}
	for i := range v {
		for k := range width {
			pattern := (i*width + k) % 16
			for j := 1; j < 5; j++ {
				q[i+j][k] = math.Copysign(0, float64(pattern>>(j-1)&1*2-1))
			}
			q[i][k] = []float64{1, -1, 0x1p-1070, -0x1p-1070}[(i/4+k)%4]
		}
		limit(q[i:i+5], v[i:i+1], &lc)
		for k := range width {
			if want := limitedV(q, &lc, i, k); math.Float64bits(v[i][k]) != math.Float64bits(want) {
				t.Fatalf("signed zeros, row %d lane %d: %v, advance's %v", i, k, v[i][k], want)
			}
		}
	}

	for trial := range 400 {
		for k := range width {
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
			for k := range width {
				q[i][k] = boundValue(rng)
			}
		}
		check("random")
	}
	// The eight-lane kernel queues rejected values and bounds them eight at
	// a time. With weights (1, 0, 0, 0, 0), v = m2: falling ramps reject
	// every value of the call, lines of period two none. On signed zeros,
	// a spike s at row r rejects interface r (v = s, c0 = 0) and r − 2
	// (v = 0, c0 = s); spikes of ±1, ±MaxFloat64 (whose bounds overflow)
	// and 3, kept only while the count stays in reach, make calls of 7,
	// 8, 9, 15, 16 and 17 rejected values: one short of, at and one past
	// one and two batches.
	for k := range width {
		lc.w[0][k], lc.w[1][k], lc.w[2][k], lc.w[3][k], lc.w[4][k] = 1, 0, 0, 0, 0
		lc.alpha[k] = []float64{4, 1, 0.25, 1}[k%4]
	}
	calls := func(name string, want int) {
		t.Helper()
		if got := rejectCount(q, &lc, rows); got != want {
			t.Fatalf("%s: advance rejects %d values, want %d", name, got, want)
		}
		check(name)
	}
	for i := range q {
		for k := range width {
			q[i][k] = -float64(i*(k+1)) - 0.5
		}
	}
	calls("every value rejected", rows*width)
	for i := range q {
		for k := range width {
			q[i][k] = []float64{0.25, -3}[(i+k)%2] * float64(k+1)
		}
	}
	calls("no value rejected", 0)
	spikes := []float64{1, math.MaxFloat64, -1, -math.MaxFloat64, 3}
	for _, want := range []int{7, 8, 9, 15, 16, 17} {
		for i := range q {
			for k := range width {
				q[i][k] = math.Copysign(0, float64((i+k)%2*2-1))
			}
		}
		// Rows 7, 12, 17, … then row 0, which has no interface r − 2 and
		// is far enough from row 7 to reject alone.
		got := 0
		for j := 0; got < want && j < (rows/5+1)*width; j++ {
			r, k := 5*(j/width)+7, j%width
			if r >= rows {
				r = 0
			}
			q[r][k] = spikes[j%len(spikes)]
			if n := rejectCount(q, &lc, rows); n > want {
				q[r][k] = math.Copysign(0, float64((r+k)%2*2-1))
			} else {
				got = n
			}
		}
		calls(fmt.Sprintf("%d values rejected", want), want)
	}

	if mixed == 0 || bounded == 0 || nan == 0 {
		t.Fatalf("coverage: %d interfaces bounded, %d on some lanes only, %d NaN bounds; want each > 0", bounded, mixed, nan)
	}
	t.Logf("%d interfaces bounded, %d on some lanes only, %d NaN bounds", bounded, mixed, nan)
}

// TestLaneSweepMatchesSweptWeights holds every lane of each width's sweep
// kernel to SweptWeights and steepness bit for bit, on fractions from a
// few ulps above 0 to a few below 1, ξ = 0.2 (where α reaches 4) and
// random draws.
func TestLaneSweepMatchesSweptWeights(t *testing.T) {
	withLimitKernel(t,
		func(t *testing.T) { checkSweep(t, avx2Lanes.sweep) },
		func(t *testing.T) { checkSweep(t, avx512Lanes.sweep) })
}

func checkSweep[R laneRow](t *testing.T, sweep func(k *laneCoef[R])) {
	rng := rand.New(rand.NewSource(55))
	xis := []float64{0x1p-1074, 1e-300, 1e-13, 1e-12, 1e-9, 0.2, math.Nextafter(0.2, 1), math.Nextafter(0.2, 0), 0.5, 0.75,
		math.Nextafter(1, 0), 1 - 0x1p-40, 0.3, 0.01}
	for range 4000 {
		xis = append(xis, rng.Float64())
	}
	var lc laneCoef[R]
	width := len(lc.xi)
	for at := 0; at < len(xis); at += width {
		for k := range width {
			lc.xi[k] = xis[(at+k)%len(xis)]
		}
		sweep(&lc)
		for k := range width {
			xi := lc.xi[k]
			w, alpha := SweptWeights(xi), steepness(xi)
			for r := range w {
				if math.Float64bits(lc.w[r][k]) != math.Float64bits(w[r]) {
					t.Fatalf("ξ = %v: w%d = %v, SweptWeights gives %v", xi, r, lc.w[r][k], w[r])
				}
			}
			if math.Float64bits(lc.alpha[k]) != math.Float64bits(alpha) {
				t.Fatalf("ξ = %v: α = %v, steepness gives %v", xi, lc.alpha[k], alpha)
			}
		}
	}
}

// TestLaneCoefLayout holds laneCoef to the offsets lanes_amd64.s and
// lanes8_amd64.s read, and the eight-lane queue to the 16 entries
// laneLimit8 writes: w, xi, alpha, eps, queue.
func TestLaneCoefLayout(t *testing.T) {
	var l4 laneCoef[[4]float64]
	var l8 laneCoef[[8]float64]
	got4 := [5]uintptr{unsafe.Offsetof(l4.w), unsafe.Offsetof(l4.xi), unsafe.Offsetof(l4.alpha), unsafe.Offsetof(l4.eps), unsafe.Offsetof(l4.queue)}
	got8 := [5]uintptr{unsafe.Offsetof(l8.w), unsafe.Offsetof(l8.xi), unsafe.Offsetof(l8.alpha), unsafe.Offsetof(l8.eps), unsafe.Offsetof(l8.queue)}
	if got4 != [5]uintptr{0, 160, 192, 224, 232} || got8 != [5]uintptr{0, 320, 384, 448, 456} {
		t.Fatalf("laneCoef offsets w, xi, alpha, eps, queue = %v and %v, want [0 160 192 224 232] and [0 320 384 448 456]", got4, got8)
	}
	if unsafe.Sizeof(l8.queue) != 16*8 {
		t.Fatalf("the queue is %d bytes, want 16 entries of 8", unsafe.Sizeof(l8.queue))
	}
}

// LaneRejects counts the limiter's rejects on the len(c) lines of a
// StepLanes call (same arguments), grouped eight lines to a lane group as
// the eight-lane kernel groups them: of the values, v at an interface of
// one line, how many fail advance's accept test, and of the rows, one
// interface of a group of eight lines, how many hold at least one such
// value. Each line is padded as step pads it and runs advance's v and
// accept test; a line with an integer CFL number is not limited and
// counts for nothing. Lines past the last whole group are ignored.
// TestLimiterRejectRates (package advect_test) reads it.
func LaneRejects(data []float64, off, laneStride, cellStride, n int, c []float64, open bool) (values, rejected, rows, rejectedRows int) {
	s, line := NewSLMPP5(), make([]float64, n)
	reject := make([][8]bool, n+1)
	for g := 0; g+8 <= len(c); g += 8 {
		for k := range 8 {
			base := off + (g+k)*laneStride
			for i := range line {
				line[i] = data[base+i*cellStride]
			}
			sw, err := s.prepare(n, c[g+k], open)
			if err != nil {
				panic(err)
			}
			for i := range reject {
				reject[i][k] = false
			}
			if sw.xi == 0 {
				continue
			}
			q, lo := s.pad[:n+sw.sh+5], sw.sh+3
			in := q[lo : lo+n]
			if sw.neg {
				for i, v := range line {
					in[n-1-i] = v
				}
			} else {
				copy(in, line)
			}
			if open {
				clear(q[:lo])
				clear(q[lo+n:])
			} else {
				wrapGhosts(q, lo, n)
			}
			w := sw.w
			for i := range reject {
				m2, m1, c0, p1, p2 := q[i], q[i+1], q[i+2], q[i+3], q[i+4]
				v := w[0]*m2 + w[1]*m1 + w[2]*c0 + w[3]*p1 + w[4]*p2
				fMP := c0 + minmod2(p1-c0, sw.alpha*(c0-m1))
				reject[i][k] = (v-c0)*(v-fMP) > mpEps
				values++
			}
		}
		for _, r := range reject {
			rows++
			if r != [8]bool{} {
				rejectedRows++
			}
			for _, x := range r {
				if x {
					rejected++
				}
			}
		}
	}
	return values, rejected, rows, rejectedRows
}
