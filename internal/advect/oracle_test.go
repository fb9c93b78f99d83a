package advect

import "math"

// The reference SL-MPP5 flux, kept as the test oracle for the production
// kernel in slmpp5.go: it fetches every value through a boundary closure,
// sums the whole upstream cells of each interface explicitly, rebuilds the
// primitive function per interface and evaluates a general six-node Lagrange
// polynomial — the textbook form of the scheme, with separate code for
// leftward transport.

// oracle is the reference scheme; mp and pp switch on the Suresh–Huynh
// limiter and the positivity clip, which the production kernel always
// applies (the unlimited oracle serves the order-of-accuracy tests).
type oracle struct{ mp, pp bool }

// limited is the oracle of the production kernel.
var limited = oracle{mp: true, pp: true}

// oracleMinmod2 is the textbook minmod — a sign test on the product, then a
// comparison per sign — that the branch-free minmod2 replaced.
func oracleMinmod2(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if a > 0 {
		if a < b {
			return a
		}
		return b
	}
	if a > b {
		return a
	}
	return b
}

// step advances f in place from the oracle's interface fluxes and returns
// them.
func (o oracle) step(f []float64, c float64, at func([]float64, int) float64) []float64 {
	fl := make([]float64, len(f)+1)
	o.fluxes(f, c, fl, at)
	for i := range f {
		f[i] -= fl[i+1] - fl[i]
	}
	return fl
}

// zeroAt indexes f with zero (vacuum) boundary values, used for the open
// velocity-space boundaries where the distribution function has compact
// support.
func zeroAt(f []float64, i int) float64 {
	if i < 0 || i >= len(f) {
		return 0
	}
	return f[i]
}

// Step advances a periodic line, so the oracle can stand in for a Scheme in
// the convergence studies.
func (o oracle) Step(f []float64, c float64) error {
	o.step(f, c, periodicAt)
	return nil
}

// fluxes fills fl[0..n] with the interface fluxes Φ_{i−1/2} for i = 0..n,
// using at(f, j) to fetch (possibly out-of-range) cell values. fl[i] is the
// mass crossing the left interface of cell i, positive rightward.
func (o oracle) fluxes(f []float64, c float64, fl []float64, at func([]float64, int) float64) {
	n := len(f)
	if c >= 0 {
		sh := int(math.Floor(c))
		xi := c - float64(sh)
		for i := 0; i <= n; i++ {
			// Interface i−1/2: whole upstream cells i−sh … i−1.
			sum := 0.0
			for j := i - sh; j <= i-1; j++ {
				sum += at(f, j)
			}
			k := i - sh - 1 // partially swept donor cell
			sum += o.fracRight(f, k, xi, at)
			fl[i] = sum
		}
		return
	}
	cc := -c
	sh := int(math.Floor(cc))
	eta := cc - float64(sh)
	for i := 0; i <= n; i++ {
		// Interface i−1/2 with leftward transport: whole cells i … i+sh−1
		// cross to the left, plus the left fraction of cell i+sh.
		sum := 0.0
		for j := i; j <= i+sh-1; j++ {
			sum += at(f, j)
		}
		k := i + sh
		sum += o.fracLeft(f, k, eta, at)
		fl[i] = -sum
	}
}

// fracRight returns the mass in the rightmost fraction ξ of cell k,
// reconstructed at fifth order and limited.
func (o oracle) fracRight(f []float64, k int, xi float64, at func([]float64, int) float64) float64 {
	if xi <= 0 {
		return 0
	}
	fk := at(f, k)
	if xi >= 1 {
		return fk
	}
	// Primitive-function nodes: W_m = Σ of cells k−2 … k−3+m (W_0 = 0).
	var w [6]float64
	acc := 0.0
	for m := 1; m <= 5; m++ {
		acc += at(f, k-3+m)
		w[m] = acc
	}
	// Interface k+1/2 is node m = 3; departure point is t = 3 − ξ.
	raw := w[3] - quintic(&w, 3-xi)
	return o.limitFrac(raw, xi, fk,
		at(f, k-2), at(f, k-1), fk, at(f, k+1), at(f, k+2))
}

// fracLeft returns the mass in the leftmost fraction η of cell k.
func (o oracle) fracLeft(f []float64, k int, eta float64, at func([]float64, int) float64) float64 {
	if eta <= 0 {
		return 0
	}
	fk := at(f, k)
	if eta >= 1 {
		return fk
	}
	var w [6]float64
	acc := 0.0
	for m := 1; m <= 5; m++ {
		acc += at(f, k-3+m)
		w[m] = acc
	}
	// Interface k−1/2 is node m = 2; integrate rightward a distance η.
	raw := quintic(&w, 2+eta) - w[2]
	return o.limitFrac(raw, eta, fk,
		at(f, k+2), at(f, k+1), fk, at(f, k-1), at(f, k-2))
}

// limitFrac applies the MP constraint to the swept average raw/xi and the
// positivity clip to the resulting flux. The stencil (m2,m1,c0,p1,p2) is
// ordered in the upwind sense: m* lie on the side the information comes
// from (for a left-edge fraction the physical stencil is reflected).
func (o oracle) limitFrac(raw, xi, avail, m2, m1, c0, p1, p2 float64) float64 {
	fbar := raw / xi
	if o.mp {
		// Fully-discrete monotonicity requires the Suresh–Huynh steepness
		// parameter to honour α·ξ ≤ 1−ξ (for RK method-of-lines SH use the
		// equivalent CFL ≤ 1/(1+α)); with the fixed α = 4 a single-stage
		// update overshoots by O(1%) on steps. This CFL-adaptive α is the
		// single-stage modification of Tanaka et al. (2017).
		alpha := (1 - xi) / math.Max(xi, 1e-12)
		if alpha > 4 {
			alpha = 4
		}
		fbar = mpLimitAlpha(fbar, m2, m1, c0, p1, p2, alpha)
	}
	flx := fbar * xi
	if o.pp {
		if flx < 0 {
			flx = 0
		}
		if flx > avail {
			flx = avail
		}
	}
	return flx
}

// quintic evaluates the degree-5 Lagrange polynomial through the nodes
// (m, w[m]) for m = 0..5 at position t.
func quintic(w *[6]float64, t float64) float64 {
	// Precomputed denominators Π_{j≠m}(m−j): for m=0..5 they are
	// −120, 24, −12, 12, −24, 120.
	var den = [6]float64{-120, 24, -12, 12, -24, 120}
	// Products (t−j).
	var d [6]float64
	for j := 0; j < 6; j++ {
		d[j] = t - float64(j)
	}
	full := 1.0
	exactNode := -1
	for j := 0; j < 6; j++ {
		if d[j] == 0 {
			exactNode = j
		}
	}
	if exactNode >= 0 {
		return w[exactNode]
	}
	for j := 0; j < 6; j++ {
		full *= d[j]
	}
	out := 0.0
	for m := 0; m < 6; m++ {
		out += w[m] * (full / d[m]) / den[m]
	}
	return out
}
