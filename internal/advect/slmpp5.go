package advect

import (
	"fmt"
	"math"
)

// SLMPP5 is the paper's single-stage, spatially fifth-order, monotonicity-
// and positivity-preserving conservative semi-Lagrangian scheme (SL-MPP5,
// Tanaka, Yoshikawa, Minoshima & Yoshida 2017).
//
// The update is written in conservative flux form
//
//	f_i^{n+1} = f_i^n − (Φ_{i+1/2} − Φ_{i−1/2}),
//
// where Φ_{i+1/2} is the total mass (in units of cell averages) crossing the
// interface during Δt. For CFL number c = s + ξ (integer shift s, fraction
// ξ ∈ [0,1)) the flux is the sum of the s whole upstream cells plus a
// fractional contribution from the partially swept cell. The fractional part
// is obtained by interpolating the primitive function W(x) = ∫f dx with a
// quintic Lagrange polynomial through six interface nodes — the conservative
// semi-Lagrangian reconstruction of Qiu & Christlieb (2010) — which yields
// fifth-order spatial accuracy from a single flux evaluation and no CFL
// restriction.
//
// Monotonicity: the swept-cell average Φ_frac/ξ is constrained by the
// Suresh–Huynh (1997) MP limiter bounds built from the upwind stencil, which
// suppresses oscillations while retaining full order at smooth extrema.
// Positivity: the fractional flux is clipped to the donor cell's available
// mass, which (for the constant-velocity lines produced by directional
// splitting) guarantees f ≥ 0 exactly while conserving mass to round-off.
//
// Every entry point runs the same kernel (advance) over a ghost-padded copy
// of the line held in the scheme's scratch. The whole-cell part of the flux
// telescopes, so the kernel reads the donor cell s places upstream and
// applies only the two fractional fluxes:
//
//	f_i^{n+1} = f_{i−s} − (φ_{i−s} − φ_{i−s−1}),   0 ≤ φ_k ≤ f_k,
//
// which is an exact shift for integer c and keeps f ≥ 0 exactly at any c.
// Leftward transport (c < 0) mirrors the line into the pad, so only the
// rightward form exists. Everything that depends on c alone — s, ξ, the five
// swept-average weights, the limiter steepness — is derived once per call,
// i.e. once per line in Step/StepOpen and once per set of lines in
// StepStrided. StepLanes pads eight or four lines side by side and runs
// advance's operations on all of them in one AVX-512 or AVX2 kernel
// (lanes8_amd64.s, lanes_amd64.s), where the CPU has it; the per-line
// advance stays their oracle, bit for bit.
type SLMPP5 struct {
	pad  []float64           // ghost-padded line, upwind-ordered
	out  []float64           // StepStrided's result line, before rounding to float32
	pad4 lanePad[[4]float64] // StepLanes' scratch for four lanes
	pad8 lanePad[[8]float64] // and for eight
}

// NewSLMPP5 returns the scheme; it always limits and always clips.
func NewSLMPP5() *SLMPP5 { return &SLMPP5{} }

// Name implements Scheme.
func (s *SLMPP5) Name() string { return "slmpp5" }

// MaxCFL implements Scheme: the semi-Lagrangian update is unconditionally
// stable (0 denotes no restriction).
func (s *SLMPP5) MaxCFL() float64 { return 0 }

// Clone implements Scheme.
func (s *SLMPP5) Clone() Scheme { return &SLMPP5{} }

// Step advances a periodic line by CFL number c (any magnitude, any sign).
func (s *SLMPP5) Step(f []float64, c float64) error {
	return s.step(f, c, false)
}

// StepOpen advances a line with vacuum (zero-inflow) boundaries, as used
// along the velocity axes: f has compact support and mass leaving the grid
// through the boundary is lost (and accounted by the caller).
func (s *SLMPP5) StepOpen(f []float64, c float64) error {
	return s.step(f, c, true)
}

func (s *SLMPP5) step(f []float64, c float64, open bool) error {
	n := len(f)
	k, err := s.prepare(n, c, open)
	if err != nil || k.sh == 0 && k.xi == 0 {
		return err
	}
	q, lo := s.pad[:n+k.sh+5], k.sh+3
	in := q[lo : lo+n]
	if k.neg {
		for i, v := range f {
			in[n-1-i] = v
		}
	} else {
		copy(in, f)
	}
	if open {
		clear(q[:lo])
		clear(q[lo+n:])
	} else {
		wrapGhosts(q, lo, n)
	}
	k.advance(q, f)
	return nil
}

// StepStrided advances, by the same CFL number c, every line of n cells
// whose cell i is data[off+i·stride], for each off in offs: the lines of a
// velocity cube in a kick, the lines of one velocity index in a drift. Each
// line is read from the float32 storage straight into the pad and its
// result written straight back, rounded once: bit for bit Step's (with
// open, StepOpen's) on the line widened to float64. With open, lost is
// Σbefore − Σafter over all the lines, each sum taken in offs order, then
// cell order, with the values after the step summed before rounding.
func (s *SLMPP5) StepStrided(data []float32, offs []int, stride, n int, c float64, open bool) (lost float64, err error) {
	k, err := s.prepare(n, c, open)
	if err != nil {
		return 0, err
	}
	for _, off := range offs {
		if stride < 1 || off < 0 || off+(n-1)*stride >= len(data) {
			return 0, fmt.Errorf("slmpp5: line at %d, stride %d, is outside %d values", off, stride, len(data))
		}
	}
	if k.sh == 0 && k.xi == 0 {
		return 0, nil
	}
	if cap(s.out) < n {
		s.out = make([]float64, n)
	}
	out := s.out[:n]
	q, lo := s.pad[:n+k.sh+5], k.sh+3
	in := q[lo : lo+n]
	if open { // zero ghosts are shared by every line
		clear(q[:lo])
		clear(q[lo+n:])
	}
	var before, after float64
	for _, off := range offs {
		line := data[off : off+(n-1)*stride+1]
		if k.neg {
			for i := range in {
				v := float64(line[i*stride])
				in[n-1-i] = v
				before += v
			}
		} else {
			for i := range in {
				v := float64(line[i*stride])
				in[i] = v
				before += v
			}
		}
		if !open {
			wrapGhosts(q, lo, n)
		}
		k.advance(q, out)
		for i, v := range out {
			line[i*stride] = float32(v)
			after += v
		}
	}
	if open {
		lost = before - after
	}
	return lost, nil
}

// wrapGhosts fills the ghosts of the padded line q, whose n interior cells
// start at q[lo], by periodic continuation (the pad may exceed one period).
// A cell is a value, or in StepLanes' pad a row of four or eight lanes.
func wrapGhosts[T any](q []T, lo, n int) {
	in := q[lo : lo+n]
	for j, src := lo-1, n-1; j >= 0; j-- {
		q[j] = in[src]
		if src--; src < 0 {
			src = n - 1
		}
	}
	for j, src := lo+n, 0; j < len(q); j++ {
		q[j] = in[src]
		if src++; src == n {
			src = 0
		}
	}
}

// sweep holds everything the kernel derives from the CFL number alone.
type sweep struct {
	sh    int        // whole-cell shift ⌊|c|⌋, bounded by the line length
	xi    float64    // fractional shift |c| − ⌊|c|⌋
	neg   bool       // leftward transport: the line is mirrored into the pad
	w     [5]float64 // swept-average weights SweptWeights(xi)
	alpha float64    // CFL-adaptive Suresh–Huynh steepness
}

// prepare is the validating entry of every step: it rejects lines
// shorter than the stencil and non-finite CFL numbers, derives the per-CFL
// constants (sweepOf) and sizes the pad.
func (s *SLMPP5) prepare(n int, c float64, open bool) (sweep, error) {
	if n < 6 {
		return sweep{}, fmt.Errorf("slmpp5: line length %d < 6", n)
	}
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return sweep{}, fmt.Errorf("slmpp5: invalid CFL %v", c)
	}
	// Sized for the largest bounded shift, so a later, larger c on lines of
	// this length does not reallocate.
	if need := 2*n + 8; cap(s.pad) < need {
		s.pad = make([]float64, need)
	}
	return sweepOf(n, c, open), nil
}

// sweepOf derives the constants of a finite CFL number c on lines of n ≥ 6
// cells: the shift (shiftOf) and, for a fractional one, the swept-average
// weights and the limiter's steepness.
func sweepOf(n int, c float64, open bool) sweep {
	var k sweep
	k.sh, k.xi, k.neg = shiftOf(n, c, open)
	if k.xi != 0 {
		k.w = SweptWeights(k.xi)
		k.alpha = steepness(k.xi)
	}
	return k
}

// shiftOf splits a finite CFL number c on lines of n ≥ 6 cells into the
// whole-cell shift sh, the fraction xi and the direction. It bounds sh by
// the line length (a periodic line drops whole rotations; a vacuum line is
// empty once it has moved n+3 cells, and then xi is 0) so that the pad is
// O(n) for any finite c.
func shiftOf(n int, c float64, open bool) (sh int, xi float64, neg bool) {
	a := math.Abs(c)
	whole := math.Floor(a)
	xi = a - whole
	if open {
		if limit := float64(n + 3); whole >= limit {
			whole, xi = limit, 0
		}
	} else if whole >= float64(n) {
		whole = math.Mod(whole, float64(n))
	}
	return int(whole), xi, c < 0
}

// steepness is the CFL-adaptive Suresh–Huynh steepness α of a fraction
// xi ∈ (0, 1). Fully-discrete monotonicity requires the steepness parameter
// to honour α·ξ ≤ 1−ξ (for RK method-of-lines SH use the equivalent CFL ≤
// 1/(1+α)); with the fixed α = 4 a single-stage update overshoots by O(1%)
// on steps. This α is the single-stage modification of Tanaka et al.
// (2017). The lane kernels' laneSweep computes it in this operation order.
func steepness(xi float64) float64 {
	alpha := (1 - xi) / max(xi, 1e-12) // xi > 0: the builtin is math.Max
	if alpha > 4 {
		alpha = 4
	}
	return alpha
}

// SweptWeights returns the five weights b_r(ξ) of the fifth-order conservative
// semi-Lagrangian reconstruction: the average of f over the downstream
// fraction ξ ∈ (0, 1] of donor cell k is Σ_r b_r·f_{k−2+r}, r = 0..4, and the
// mass swept across the interface is ξ times that. They are the closed form
// of a_r(ξ)/ξ with a_r = [r ≤ 2] − Σ_{m>r} ℓ_m(3−ξ), ℓ_m the quintic Lagrange
// basis on the primitive function's six interface nodes; at ξ → 0 they reduce
// to the upwind-biased interface value (2, −13, 47, 27, −3)/60. The lane
// kernels' laneSweep computes them in this operation order.
func SweptWeights(xi float64) [5]float64 {
	x2 := xi * xi
	down := (1 - xi) * (2 - xi) * (3 - xi)
	return [5]float64{
		(1 - x2) * (4 - x2) / 120,
		(1 - x2) * (2 + xi) * (4*xi - 13) / 120,
		(94 + xi*(75+xi*(-40+xi*(-15+6*xi)))) / 120,
		down * (9 + 4*xi) / 120,
		-down * (1 + xi) / 120,
	}
}

// advance is the SL-MPP5 kernel. q is the ghost-padded line in upwind order
// (transport towards increasing index): q[sh+3+j] is cell j of the line, so
// q[i..i+4] is the stencil of the donor cell whose fractional flux crosses
// interface i−1/2 of the shifted line. The n = len(out) updated cells are
// written to out, mirrored back when the line was mirrored in.
func (k *sweep) advance(q, out []float64) {
	n := len(out)
	o, step := 0, 1
	if k.neg {
		o, step = n-1, -1
	}
	if k.xi == 0 { // integer CFL: an exact shift
		for _, v := range q[3 : 3+n] {
			out[o] = v
			o += step
		}
		return
	}
	xi, alpha := k.xi, k.alpha
	w0, w1, w2, w3, w4 := k.w[0], k.w[1], k.w[2], k.w[3], k.w[4]
	m1, c0, p1, p2 := q[0], q[1], q[2], q[3]
	var m2, prev float64
	for i, next := range q[4 : n+5] {
		m2, m1, c0, p1, p2 = m1, c0, p1, p2, next
		v := w0*m2 + w1*m1 + w2*c0 + w3*p1 + w4*p2
		// The head of mpLimitAlpha: v inside [f0, fMP] passes.
		if fMP := c0 + minmod2(p1-c0, alpha*(c0-m1)); (v-c0)*(v-fMP) > mpEps {
			v = mpBound(v, m2, m1, c0, p1, p2, alpha)
		}
		flx := v * xi
		if flx < 0 {
			flx = 0
		}
		if flx > c0 {
			flx = c0
		}
		if i > 0 {
			// The donor of interface i−1/2 is also the cell that lands on
			// out cell i−1: it keeps what it does not pass on and gains the
			// previous donor's flux.
			out[o] = c0 - (flx - prev)
			o += step
		}
		prev = flx
	}
}

// mpEps is the slack of the limiter's accept test (v−f0)(v−fMP) ≤ mpEps.
const mpEps = 1e-20

// mpLimit applies the Suresh–Huynh monotonicity-preserving constraint to the
// candidate interface/swept value v given the upwind-ordered stencil
// (f_{j-2}, f_{j-1}, f_j, f_{j+1}, f_{j+2}) where f_j is the donor cell,
// with the standard steepness parameter α = 4 (method-of-lines usage).
func mpLimit(v, fm2, fm1, f0, fp1, fp2 float64) float64 {
	return mpLimitAlpha(v, fm2, fm1, f0, fp1, fp2, 4.0)
}

// mpLimitAlpha is mpLimit with an explicit steepness parameter α.
func mpLimitAlpha(v, fm2, fm1, f0, fp1, fp2, alpha float64) float64 {
	fMP := f0 + minmod2(fp1-f0, alpha*(f0-fm1))
	if (v-f0)*(v-fMP) <= mpEps {
		return v
	}
	return mpBound(v, fm2, fm1, f0, fp1, fp2, alpha)
}

// mpBound is the limiter proper, reached when v lies outside [f0, fMP]: the
// median of v and the Suresh–Huynh bounds that still admit smooth extrema.
// lanes_amd64.s computes it on four lanes in this operation order; a change
// here changes it there (TestLaneLimitMatchesMPBound holds the two equal).
func mpBound(v, fm2, fm1, f0, fp1, fp2, alpha float64) float64 {
	dm1 := fm2 - 2*fm1 + f0
	d0 := fm1 - 2*f0 + fp1
	dp1 := f0 - 2*fp1 + fp2
	dMp := minmod4(4*d0-dp1, 4*dp1-d0, d0, dp1)
	dMm := minmod4(4*d0-dm1, 4*dm1-d0, d0, dm1)
	fUL := f0 + alpha*(f0-fm1)
	fAV := 0.5 * (f0 + fp1)
	fMD := fAV - 0.5*dMp
	fLC := f0 + 0.5*(f0-fm1) + (4.0/3.0)*dMm
	fmin := max(min(f0, fp1, fMD), min(f0, fUL, fLC))
	fmax := min(max(f0, fp1, fMD), max(f0, fUL, fLC))
	return median(v, fmin, fmax)
}
