package advect

import (
	"fmt"
	"math"
)

// MP5 is the conventional comparator of §5.2: the Suresh–Huynh (1997)
// fifth-order monotonicity-preserving finite-difference scheme advanced with
// the three-stage TVD Runge–Kutta integrator of Shu & Osher (1988). It
// requires THREE flux evaluations per step and a CFL restriction, which is
// exactly the cost the paper's single-stage SL-MPP5 eliminates.
type MP5 struct {
	s1, s2, rhs []float64
}

// NewMP5 returns a new MP5+RK3 scheme.
func NewMP5() *MP5 { return &MP5{} }

// MaxCFL implements Scheme.
func (m *MP5) MaxCFL() float64 { return 1.0 }

// Clone implements Scheme.
func (m *MP5) Clone() Scheme { return &MP5{} }

// Step advances a periodic line by one step of SSP-RK3 with CFL c (|c| ≤ 1).
func (m *MP5) Step(f []float64, c float64) error {
	n := len(f)
	if n < 6 {
		return fmt.Errorf("mp5: line length %d < 6", n)
	}
	if math.Abs(c) > m.MaxCFL() {
		return fmt.Errorf("mp5: CFL %v exceeds %v", c, m.MaxCFL())
	}
	if cap(m.s1) < n {
		m.s1 = make([]float64, n)
		m.s2 = make([]float64, n)
		m.rhs = make([]float64, n)
	}
	s1, s2, rhs := m.s1[:n], m.s2[:n], m.rhs[:n]

	// Stage 1: s1 = f + Δt·L(f).
	m.rhsMP5(f, c, rhs)
	for i := range s1 {
		s1[i] = f[i] + rhs[i]
	}
	// Stage 2: s2 = 3/4 f + 1/4 (s1 + Δt·L(s1)).
	m.rhsMP5(s1, c, rhs)
	for i := range s2 {
		s2[i] = 0.75*f[i] + 0.25*(s1[i]+rhs[i])
	}
	// Stage 3: f = 1/3 f + 2/3 (s2 + Δt·L(s2)).
	m.rhsMP5(s2, c, rhs)
	for i := range f {
		f[i] = f[i]/3 + 2.0/3.0*(s2[i]+rhs[i])
	}
	return nil
}

// rhsMP5 computes Δt·L(f) = −c (f̂_{i+1/2} − f̂_{i−1/2}) for periodic f using
// the upwind-biased MP5 interface reconstruction.
func (m *MP5) rhsMP5(f []float64, c float64, rhs []float64) {
	n := len(f)
	// fhat[i] is the interface value at i−1/2 (between cells i−1 and i).
	// Build it upwind: for c > 0 reconstruct from the left cell i−1's
	// stencil; for c < 0 mirror.
	prev := 0.0
	for i := 0; i <= n; i++ {
		var fh float64
		if c >= 0 {
			j := i - 1
			fh = reconstructMP5(
				periodicAt(f, j-2), periodicAt(f, j-1), periodicAt(f, j),
				periodicAt(f, j+1), periodicAt(f, j+2))
		} else {
			j := i
			fh = reconstructMP5(
				periodicAt(f, j+2), periodicAt(f, j+1), periodicAt(f, j),
				periodicAt(f, j-1), periodicAt(f, j-2))
		}
		if i > 0 {
			rhs[i-1] = -c * (fh - prev)
		}
		prev = fh
	}
}

// periodicAt indexes f periodically.
func periodicAt(f []float64, i int) float64 { return f[mod(i, len(f))] }

// reconstructMP5 returns the fifth-order upwind interface value from the
// stencil (f_{j−2},…,f_{j+2}) of the donor cell j, limited by the
// Suresh–Huynh MP constraint.
func reconstructMP5(fm2, fm1, f0, fp1, fp2 float64) float64 {
	vOR := (2*fm2 - 13*fm1 + 47*f0 + 27*fp1 - 3*fp2) / 60
	return mpLimit(vOR, fm2, fm1, f0, fp1, fp2)
}
