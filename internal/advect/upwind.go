package advect

import (
	"fmt"
	"math"
)

// Upwind1 is the first-order donor-cell scheme, the most diffusive baseline.
type Upwind1 struct{ buf []float64 }

// NewUpwind1 returns a first-order upwind scheme.
func NewUpwind1() *Upwind1 { return &Upwind1{} }

// Name implements Scheme.
func (u *Upwind1) Name() string { return "upwind1" }

// MaxCFL implements Scheme.
func (u *Upwind1) MaxCFL() float64 { return 1.0 }

// Clone implements Scheme.
func (u *Upwind1) Clone() Scheme { return &Upwind1{} }

// Step implements Scheme.
func (u *Upwind1) Step(f []float64, c float64) error {
	n := len(f)
	if n < 2 {
		return fmt.Errorf("upwind1: line length %d < 2", n)
	}
	if math.Abs(c) > 1 {
		return fmt.Errorf("upwind1: CFL %v exceeds 1", c)
	}
	if cap(u.buf) < n {
		u.buf = make([]float64, n)
	}
	buf := u.buf[:n]
	copy(buf, f)
	if c >= 0 {
		for i := 0; i < n; i++ {
			f[i] = buf[i] - c*(buf[i]-buf[mod(i-1, n)])
		}
	} else {
		for i := 0; i < n; i++ {
			f[i] = buf[i] - c*(buf[mod(i+1, n)]-buf[i])
		}
	}
	return nil
}

// LaxWendroff2 is the classical second-order scheme (dispersive, produces
// oscillations at discontinuities — it is included to demonstrate what the
// MP limiter buys).
type LaxWendroff2 struct{ buf []float64 }

// NewLaxWendroff2 returns a Lax–Wendroff scheme.
func NewLaxWendroff2() *LaxWendroff2 { return &LaxWendroff2{} }

// Name implements Scheme.
func (l *LaxWendroff2) Name() string { return "laxwendroff2" }

// MaxCFL implements Scheme.
func (l *LaxWendroff2) MaxCFL() float64 { return 1.0 }

// Clone implements Scheme.
func (l *LaxWendroff2) Clone() Scheme { return &LaxWendroff2{} }

// Step implements Scheme.
func (l *LaxWendroff2) Step(f []float64, c float64) error {
	n := len(f)
	if n < 3 {
		return fmt.Errorf("laxwendroff2: line length %d < 3", n)
	}
	if math.Abs(c) > 1 {
		return fmt.Errorf("laxwendroff2: CFL %v exceeds 1", c)
	}
	if cap(l.buf) < n {
		l.buf = make([]float64, n)
	}
	buf := l.buf[:n]
	copy(buf, f)
	for i := 0; i < n; i++ {
		fm := buf[mod(i-1, n)]
		fp := buf[mod(i+1, n)]
		f[i] = buf[i] - 0.5*c*(fp-fm) + 0.5*c*c*(fp-2*buf[i]+fm)
	}
	return nil
}
