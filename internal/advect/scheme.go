// Package advect implements the one-dimensional advection solvers at the
// heart of the paper's Vlasov method (§5.2). The directional-splitting
// approach (eq. 3–5) reduces the 6D Vlasov equation to sweeps of the linear
// advection equation ∂f/∂t + v ∂f/∂x = 0 with a velocity v that is constant
// along each sweep line.
//
// The schemes provided are
//
//   - SLMPP5 — the paper's novel scheme (Tanaka et al. 2017): a conservative
//     semi-Lagrangian flux of spatially fifth order, limited by the
//     Suresh–Huynh monotonicity-preserving (MP) constraints and a
//     positivity-preserving flux clip, advanced with a SINGLE flux stage per
//     step and no CFL restriction.
//   - MP5 — the conventional comparator: Suresh–Huynh MP5 reconstruction with
//     three-stage TVD Runge-Kutta time integration (three flux evaluations
//     per step, CFL ≤ 1).
//   - Upwind1, LaxWendroff2 — first- and second-order baselines.
//
// All schemes advance periodic float64 lines in place. SL-MPP5 also
// advances open (vacuum-bounded) lines, sets of strided lines of the
// float32 grid that share one CFL number, all through one kernel, and
// float64 lines each with its own CFL number (StepLanes), eight or four at
// once through AVX-512 and AVX2 copies of that kernel, one line per vector
// lane, that equal it bit for bit; StepStrided gives every scheme the
// strided form.
package advect

import (
	"fmt"
	"math"
)

// Scheme advances the 1D linear advection equation on a periodic line.
// Implementations keep private scratch buffers and are therefore not safe
// for concurrent use; call Clone to obtain per-worker instances.
type Scheme interface {
	// Name identifies the scheme in tables and benchmarks.
	Name() string
	// MaxCFL returns the largest stable CFL number (0 means unconditional).
	MaxCFL() float64
	// Step advances f in place by one step with CFL number c = v·Δt/Δx.
	// The line is treated as periodic.
	Step(f []float64, c float64) error
	// Clone returns an independent instance for use by another goroutine.
	Clone() Scheme
}

// New constructs a scheme by name: "slmpp5", "mp5", "upwind1", "laxwendroff2".
func New(name string) (Scheme, error) {
	switch name {
	case "slmpp5":
		return NewSLMPP5(), nil
	case "mp5":
		return NewMP5(), nil
	case "upwind1":
		return NewUpwind1(), nil
	case "laxwendroff2":
		return NewLaxWendroff2(), nil
	}
	return nil, fmt.Errorf("advect: unknown scheme %q", name)
}

// StepStrided advances every line of n cells whose cell i is
// data[off+i·stride], for each off in offs, periodically by the same CFL
// number c — the shape of a drift, where every line sharing a velocity
// index shares c. SL-MPP5 reads and writes the float32 storage directly
// (see (*SLMPP5).StepStrided); the comparison schemes step each line
// through the caller's buffer line, of at least n values.
func StepStrided(s Scheme, line []float64, data []float32, offs []int, stride, n int, c float64) error {
	if sl, ok := s.(*SLMPP5); ok {
		_, err := sl.StepStrided(data, offs, stride, n, c, false)
		return err
	}
	if n < 1 || len(line) < n {
		return fmt.Errorf("advect: %d-value line buffer for lines of %d", len(line), n)
	}
	line = line[:n]
	for _, off := range offs {
		cells := data[off : off+(n-1)*stride+1]
		for i := range line {
			line[i] = float64(cells[i*stride])
		}
		if err := s.Step(line, c); err != nil {
			return err
		}
		for i, v := range line {
			cells[i*stride] = float32(v)
		}
	}
	return nil
}

// Names lists the registered scheme names.
func Names() []string { return []string{"slmpp5", "mp5", "upwind1", "laxwendroff2"} }

// minmod2 returns the minmod of two arguments: the one of smaller magnitude
// if they share a sign, else zero. It is branch-free on the IEEE-754 bits —
// the magnitudes of finite floats order like their bits as uint64, so
// min(|a|, |b|) is an integer min (CMP + CMOV) with a's sign, masked to zero
// when the sign bits differ — because on spatial lines the two slope tests
// of the textbook form are close to coin flips.
func minmod2(a, b float64) float64 {
	const sign = 1 << 63
	ba, bb := math.Float64bits(a), math.Float64bits(b)
	m := min(ba&^sign, bb&^sign)
	return math.Float64frombits((m | ba&sign) & ((ba^bb)>>63 - 1))
}

// minmod4 returns the minmod of four arguments.
func minmod4(a, b, c, d float64) float64 {
	return minmod2(minmod2(a, b), minmod2(c, d))
}

// median returns the median of three values.
func median(a, b, c float64) float64 {
	return a + minmod2(b-a, c-a)
}

// mod returns i modulo n in [0, n).
func mod(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}
