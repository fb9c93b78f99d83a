package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func randomSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestForwardMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 3, 5, 6, 12, 96, 100, 27} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := randomSignal(n, int64(n))
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Fatalf("n=%d: max error %v", n, e)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{8, 96, 33, 128, 192} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := randomSignal(n, 42)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		if e := maxErr(x, y); e > 1e-10*float64(n) {
			t.Fatalf("n=%d: roundtrip error %v", n, e)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	p, err := NewPlan(96)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		x := randomSignal(96, seed)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		return maxErr(x, y) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestParseval(t *testing.T) {
	n := 128
	p, _ := NewPlan(n)
	x := randomSignal(n, 7)
	var eX float64
	for _, v := range x {
		eX += real(v)*real(v) + imag(v)*imag(v)
	}
	y := append([]complex128(nil), x...)
	p.Forward(y)
	var eY float64
	for _, v := range y {
		eY += real(v)*real(v) + imag(v)*imag(v)
	}
	eY /= float64(n)
	if math.Abs(eX-eY)/eX > 1e-12 {
		t.Fatalf("Parseval violated: %v vs %v", eX, eY)
	}
}

func TestDeltaFunction(t *testing.T) {
	n := 64
	p, _ := NewPlan(n)
	x := make([]complex128, n)
	x[0] = 1
	p.Forward(x)
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("delta spectrum not flat at k=%d: %v", k, v)
		}
	}
}

func TestSingleMode(t *testing.T) {
	n := 32
	p, _ := NewPlan(n)
	x := make([]complex128, n)
	kMode := 5
	for j := range x {
		ang := 2 * math.Pi * float64(kMode) * float64(j) / float64(n)
		x[j] = cmplx.Exp(complex(0, ang))
	}
	p.Forward(x)
	for k, v := range x {
		want := complex(0, 0)
		if k == kMode {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(v-want) > 1e-9 {
			t.Fatalf("mode leakage at k=%d: %v", k, v)
		}
	}
}

func TestInvalidPlan(t *testing.T) {
	if _, err := NewPlan(0); err == nil {
		t.Fatal("NewPlan(0) accepted")
	}
	if _, err := NewPlan(-4); err == nil {
		t.Fatal("NewPlan(-4) accepted")
	}
}

func TestFFT3RoundTrip(t *testing.T) {
	for _, dims := range [][3]int{{8, 8, 8}, {4, 6, 10}, {12, 8, 6}, {16, 16, 16}} {
		nx, ny, nz := dims[0], dims[1], dims[2]
		f3, err := NewFFT3(nx, ny, nz)
		if err != nil {
			t.Fatal(err)
		}
		x := randomSignal(nx*ny*nz, 3)
		y := append([]complex128(nil), x...)
		if err := f3.Forward(y); err != nil {
			t.Fatal(err)
		}
		if err := f3.Inverse(y); err != nil {
			t.Fatal(err)
		}
		if e := maxErr(x, y); e > 1e-9 {
			t.Fatalf("dims %v: roundtrip error %v", dims, e)
		}
	}
}

func TestFFT3MatchesSeparableNaive(t *testing.T) {
	nx, ny, nz := 4, 4, 4
	f3, _ := NewFFT3(nx, ny, nz)
	x := randomSignal(nx*ny*nz, 11)
	got := append([]complex128(nil), x...)
	if err := f3.Forward(got); err != nil {
		t.Fatal(err)
	}
	// Brute-force 3D DFT.
	want := make([]complex128, len(x))
	for kx := 0; kx < nx; kx++ {
		for ky := 0; ky < ny; ky++ {
			for kz := 0; kz < nz; kz++ {
				var s complex128
				for jx := 0; jx < nx; jx++ {
					for jy := 0; jy < ny; jy++ {
						for jz := 0; jz < nz; jz++ {
							ph := -2 * math.Pi * (float64(kx*jx)/float64(nx) +
								float64(ky*jy)/float64(ny) + float64(kz*jz)/float64(nz))
							s += x[(jx*ny+jy)*nz+jz] * cmplx.Exp(complex(0, ph))
						}
					}
				}
				want[(kx*ny+ky)*nz+kz] = s
			}
		}
	}
	if e := maxErr(got, want); e > 1e-9 {
		t.Fatalf("3D FFT error vs naive: %v", e)
	}
}

func TestFFT3WorkerIndependence(t *testing.T) {
	nx, ny, nz := 8, 12, 16
	x := randomSignal(nx*ny*nz, 5)
	ref := append([]complex128(nil), x...)
	f1, _ := NewFFT3(nx, ny, nz)
	f1.SetWorkers(1)
	if err := f1.Forward(ref); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		y := append([]complex128(nil), x...)
		fw, _ := NewFFT3(nx, ny, nz)
		fw.SetWorkers(w)
		if err := fw.Forward(y); err != nil {
			t.Fatal(err)
		}
		if e := maxErr(ref, y); e > 1e-12 {
			t.Fatalf("workers=%d changes result by %v", w, e)
		}
	}
}

func TestFFT3BadLength(t *testing.T) {
	f3, _ := NewFFT3(4, 4, 4)
	if err := f3.Forward(make([]complex128, 10)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func maxAbs(a []complex128) float64 {
	m := 0.0
	for _, v := range a {
		m = max(m, cmplx.Abs(v))
	}
	return m
}

// TestEveryLength holds every length the kernel can be asked for — the
// 2ᵃ3ᵇ5ᶜ sizes of the paper's meshes, primes, and composites that go through
// Bluestein — to the naive DFT and to its own round trip.
func TestEveryLength(t *testing.T) {
	for n := 1; n <= 200; n++ {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := randomSignal(n, int64(n))
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		if e := maxErr(got, want) / maxAbs(want); e > 1e-12 {
			t.Fatalf("n=%d: forward differs from the naive DFT by %.3g relative", n, e)
		}
		p.Inverse(got)
		if e := maxErr(got, x) / maxAbs(x); e > 1e-12 {
			t.Fatalf("n=%d: round trip error %.3g relative", n, e)
		}
	}
}

func randomField(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestRealMatchesComplex: the half spectrum of a real field is the kz ≤ nz/2
// part of its complex transform, and the real inverse returns the field, on
// even, odd, prime (Bluestein) and production (20³, 64³) dims.
func TestRealMatchesComplex(t *testing.T) {
	for _, d := range [][3]int{{2, 2, 2}, {3, 3, 3}, {5, 5, 5}, {7, 7, 7}, {1, 1, 1}, {3, 5, 7}, {2, 3, 1},
		{15, 20, 12}, {20, 20, 20}, {30, 30, 30}, {64, 64, 64}} {
		nx, ny, nz := d[0], d[1], d[2]
		f3, err := NewFFT3(nx, ny, nz)
		if err != nil {
			t.Fatal(err)
		}
		field := randomField(nx*ny*nz, 17)
		full := make([]complex128, len(field))
		for i, v := range field {
			full[i] = complex(v, 0)
		}
		if err := f3.Forward(full); err != nil {
			t.Fatal(err)
		}
		half := make([]complex128, f3.HalfLen())
		if err := f3.ForwardReal(field, half); err != nil {
			t.Fatal(err)
		}
		nzh := nz/2 + 1
		scale := maxAbs(full)
		for l := 0; l < nx*ny; l++ {
			if e := maxErr(half[l*nzh:(l+1)*nzh], full[l*nz:l*nz+nzh]) / scale; e > 1e-13 {
				t.Fatalf("dims %v line %d: half spectrum differs from c2c by %.3g relative", d, l, e)
			}
		}
		back := make([]float64, len(field))
		if err := f3.InverseReal(half, back); err != nil {
			t.Fatal(err)
		}
		for i, v := range field {
			if math.Abs(back[i]-v) > 1e-13*math.Sqrt(float64(len(field))) {
				t.Fatalf("dims %v: real round trip off by %.3g at %d", d, math.Abs(back[i]-v), i)
			}
		}
	}
}

// TestRealWorkerIndependence: lines are paired by index, not by worker, so
// the real transforms give the same bits at any worker count — also with an
// odd number of z-lines, where the last one rides alone.
func TestRealWorkerIndependence(t *testing.T) {
	for _, d := range [][3]int{{8, 12, 16}, {3, 5, 7}, {20, 20, 20}} {
		nx, ny, nz := d[0], d[1], d[2]
		field := randomField(nx*ny*nz, 5)
		var refHalf []complex128
		var refBack []float64
		for _, w := range []int{1, 2, 3} {
			f3, _ := NewFFT3(nx, ny, nz)
			f3.SetWorkers(w)
			half := make([]complex128, f3.HalfLen())
			if err := f3.ForwardReal(field, half); err != nil {
				t.Fatal(err)
			}
			spec := append([]complex128(nil), half...)
			back := make([]float64, len(field))
			if err := f3.InverseReal(half, back); err != nil {
				t.Fatal(err)
			}
			if w == 1 {
				refHalf, refBack = spec, back
				continue
			}
			for i, v := range spec {
				if v != refHalf[i] {
					t.Fatalf("dims %v: %d workers change spectrum cell %d", d, w, i)
				}
			}
			for i, v := range back {
				if v != refBack[i] {
					t.Fatalf("dims %v: %d workers change field cell %d", d, w, i)
				}
			}
		}
	}
}

func TestRealBadLength(t *testing.T) {
	f3, _ := NewFFT3(4, 4, 4)
	if err := f3.ForwardReal(make([]float64, 64), make([]complex128, 64)); err == nil {
		t.Fatal("full-length spectrum accepted as the half")
	}
	if err := f3.InverseReal(make([]complex128, f3.HalfLen()), make([]float64, 10)); err == nil {
		t.Fatal("short field accepted")
	}
}

// TestWarmTransformsAllocateNothing: plans, line buffers and the Bluestein
// scratch are built once.
func TestWarmTransformsAllocateNothing(t *testing.T) {
	for _, n := range []int{96, 97} {
		p, _ := NewPlan(n)
		x := randomSignal(n, 1)
		if a := testing.AllocsPerRun(10, func() { p.Forward(x); p.Inverse(x) }); a != 0 {
			t.Fatalf("warmed Plan(%d) allocates %.1f per round trip", n, a)
		}
	}
	f3, _ := NewFFT3(12, 10, 14)
	f3.SetWorkers(1)
	field := randomField(12*10*14, 2)
	half := make([]complex128, f3.HalfLen())
	round := func() {
		if err := f3.ForwardReal(field, half); err != nil {
			t.Fatal(err)
		}
		if err := f3.InverseReal(half, field); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if a := testing.AllocsPerRun(10, round); a != 0 {
		t.Fatalf("warmed one-worker real FFT3 allocates %.1f per round trip", a)
	}
}
