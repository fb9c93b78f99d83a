// Package fft provides the fast Fourier transforms required by the particle-
// mesh gravity solver. The paper's PM meshes are 3³·N_x cells on grids of
// 96·2ᵏ per side, so every production length is 2ᵃ·3ᵇ: Plan is one autosort
// (Stockham) mixed-radix kernel with hard-coded radix-4, 2, 3 and 5
// butterflies, chosen by factoring the length. A length with a prime factor
// above 5 is evaluated as a Bluestein chirp convolution whose inner transform
// is the same kernel on the next 2ᵃ3ᵇ5ᶜ length ≥ 2n−1. FFT3 builds the 3D
// complex transform and the real-input / real-output pair over the Hermitian
// half spectrum (what the Poisson solver, the initial conditions and the
// power spectrum use) from lines of Plans.
//
// The paper offloads this to the Fujitsu SSL II 2D-decomposed FFT; here the
// transform is our own.
package fft

import (
	"fmt"
	"math"
)

// Plan caches the twiddle factors and scratch buffers for complex transforms
// of a fixed length n. A Plan is not safe for concurrent use; callers that
// transform lines in parallel create one Plan per worker.
type Plan struct {
	n      int
	stages []stage      // empty for n == 1 and for Bluestein lengths
	work   []complex128 // the autosort kernel's second buffer, length n

	// Bluestein machinery (lengths with a prime factor > 5).
	chirp []complex128 // e^{-iπk²/n}, length n
	inner *Plan        // 2ᵃ3ᵇ5ᶜ plan of length m ≥ 2n-1
	kern  []complex128 // spectrum of the conjugate-chirp kernel over m, times 1/m
	conv  []complex128 // convolution buffer, length m
}

// stage is one radix-r pass of the decimation-in-frequency Stockham
// recursion at sub-length r·m and stride s (r·m·s = n): butterfly (p, q)
// reads src[q + s·(p + j·m)], j < r, and writes its k-th output, times
// w^{pk} with w = e^{∓2πi/(r·m)}, to dst[q + s·(r·p + k)].
type stage struct {
	r, m, s int
	// tw[0] holds the forward twiddles w^{pk} at [(r-1)·p + k-1], tw[1]
	// their conjugates for the inverse; nil when m == 1 (all ones).
	tw [2][]complex128
}

func newStage(r, m, s int) stage {
	st := stage{r: r, m: m, s: s}
	if m == 1 {
		return st
	}
	for p := 0; p < m; p++ {
		for k := 1; k < r; k++ {
			w := unitRoot(p*k, r*m)
			st.tw[0] = append(st.tw[0], w)
			st.tw[1] = append(st.tw[1], complex(real(w), -imag(w)))
		}
	}
	return st
}

// NewPlan creates a transform plan for length n ≥ 1.
func NewPlan(n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft: invalid length %d", n)
	}
	p := &Plan{n: n}
	if radices, ok := factor(n); ok {
		p.work = make([]complex128, n)
		m, s := n, 1
		for _, r := range radices {
			m /= r
			p.stages = append(p.stages, newStage(r, m, s))
			s *= r
		}
		return p, nil
	}
	// Bluestein: X[k] = c[k]·Σ_j (x[j]·c[j])·conj(c[k−j]) with the chirp
	// c[k] = e^{-iπk²/n}, a cyclic convolution on any length m ≥ 2n−1.
	m := 2*n - 1
	for !smooth(m) {
		m++
	}
	inner, err := NewPlan(m)
	if err != nil {
		return nil, err
	}
	p.inner = inner
	p.chirp = make([]complex128, n)
	p.kern = make([]complex128, m)
	p.conv = make([]complex128, m)
	for k := 0; k < n; k++ {
		// k² mod 2n avoids precision loss for large k.
		k2 := int(int64(k) * int64(k) % int64(2*n))
		p.chirp[k] = unitRoot(k2, 2*n)
		c := complex(real(p.chirp[k]), -imag(p.chirp[k]))
		p.kern[k] = c
		if k > 0 {
			p.kern[m-k] = c
		}
	}
	inner.run(p.kern, false)
	// The inner inverse is unnormalised; its 1/m rides on the kernel.
	for i, v := range p.kern {
		p.kern[i] = complex(real(v)/float64(m), imag(v)/float64(m))
	}
	return p, nil
}

// factor splits n into the radix sequence of its stages — fours first, then
// at most one two, then threes and fives — and reports whether n has no
// other prime factor.
func factor(n int) (radices []int, ok bool) {
	for _, r := range [...]int{4, 2, 3, 5} {
		for n%r == 0 {
			radices = append(radices, r)
			n /= r
		}
	}
	return radices, n == 1
}

func smooth(n int) bool {
	_, ok := factor(n)
	return ok
}

// unitRoot returns e^{-2πi·j/n}, exact on the axes.
func unitRoot(j, n int) complex128 {
	j %= n
	switch {
	case j == 0:
		return 1
	case 4*j == n:
		return complex(0, -1)
	case 2*j == n:
		return -1
	case 4*j == 3*n:
		return complex(0, 1)
	}
	sin, cos := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
	return complex(cos, sin)
}

// Forward computes the in-place forward DFT
// X[k] = Σ_j x[j]·e^{-2πi jk/n}. len(x) must equal the plan's length n.
func (p *Plan) Forward(x []complex128) {
	p.checkLen(x)
	p.run(x, false)
}

// Inverse computes the in-place inverse DFT including the 1/n normalisation.
func (p *Plan) Inverse(x []complex128) {
	p.checkLen(x)
	p.run(x, true)
	scale(x, 1/float64(p.n))
}

// Freq returns the signed mode number of index i of an n-point transform:
// i up to n/2, i − n above it.
func Freq(i, n int) int {
	if i > n/2 {
		return i - n
	}
	return i
}

func (p *Plan) checkLen(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: length mismatch %d != %d", len(x), p.n))
	}
}

func scale(x []complex128, f float64) {
	for i, v := range x {
		x[i] = complex(real(v)*f, imag(v)*f)
	}
}

// run transforms x in place, forward or (unnormalised) inverse. The stages
// alternate between x and the work buffer; the last one has m == 1, where a
// butterfly reads and writes the same r cells, so it can always land in x.
func (p *Plan) run(x []complex128, inverse bool) {
	if p.inner != nil {
		p.bluestein(x, inverse)
		return
	}
	src := x
	for i := range p.stages {
		dst := p.work
		if i&1 == 1 || i == len(p.stages)-1 {
			dst = x
		}
		p.stages[i].pass(src, dst, inverse)
		src = dst
	}
}

// bluestein evaluates an arbitrary-length DFT as a chirp-z convolution. The
// conjugate chirp is even, so its spectrum serves the inverse conjugated.
func (p *Plan) bluestein(x []complex128, inverse bool) {
	sign := 1.0
	if inverse {
		sign = -1
	}
	a := p.conv
	for k, c := range p.chirp {
		a[k] = x[k] * complex(real(c), sign*imag(c))
	}
	clear(a[p.n:])
	p.inner.run(a, false)
	for i, k := range p.kern {
		a[i] *= complex(real(k), sign*imag(k))
	}
	p.inner.run(a, true)
	for k, c := range p.chirp {
		x[k] = a[k] * complex(real(c), sign*imag(c))
	}
}

// pass runs one stage from src into dst. The inverse r-point butterfly is
// the forward one with inputs j and r−j exchanged, so the direction costs
// nothing inside the loops: it picks the input order and the twiddle table.
func (st *stage) pass(src, dst []complex128, inverse bool) {
	r, m, s := st.r, st.m, st.s
	h := m * s // distance between a butterfly's inputs
	var in [5][]complex128
	for j := 0; j < r; j++ {
		jj := j
		if inverse && j > 0 {
			jj = r - j
		}
		in[j] = src[jj*h : (jj+1)*h]
	}
	tw := st.tw[0]
	if inverse {
		tw = st.tw[1]
	}
	switch r {
	case 2:
		pass2(in[0], in[1], dst, tw, m, s)
	case 3:
		pass3(in[0], in[1], in[2], dst, tw, m, s)
	case 4:
		pass4(in[0], in[1], in[2], in[3], dst, tw, m, s)
	case 5:
		pass5(in[0], in[1], in[2], in[3], in[4], dst, tw, m, s)
	}
}
