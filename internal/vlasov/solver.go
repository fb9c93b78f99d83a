// Package vlasov advances the six-dimensional Vlasov equation (eq. 1) with
// the directional-splitting sequence of eq. (5): three velocity-space
// half-steps, three position-space full steps, and the mirrored velocity
// half-steps, each a set of one-dimensional advections handled by the
// SL-MPP5 scheme of package advect. Step is that sequence for one isolated
// step; Kick and Drift are its pieces. Over a run the closing half kick of
// one step and the opening one of the next see the same acceleration, so a
// driver (package hybrid) applies them as one Kick of the summed interval:
// six sweeps a step, not nine.
//
//   - Position sweeps: ∂f/∂t + (u_i/a²)·∂f/∂x_i = 0, CFL depends only on the
//     velocity index; lines are periodic across the box.
//   - Velocity sweeps: ∂f/∂t − (∂φ/∂x_i)·∂f/∂u_i = 0, CFL is the per-cell
//     acceleration; lines are open (vacuum) at the velocity boundary, and
//     mass crossing it is recorded as BoundaryLoss.
//
// Storage is float32 and the arithmetic float64, as in the paper's
// mixed-precision design: the scheme reads each line of the List-1 layout
// at its stride straight into its own float64 scratch and writes the result
// straight back (advect's StepStrided). Lines that share one CFL number —
// the lines of a velocity cube in a kick, the lines of one velocity index
// in a drift — go to the scheme in one call, so that what it derives from
// the CFL number is computed once per call. Work is parallelised over
// independent calls with one scheme clone per worker.
package vlasov

import (
	"fmt"
	"math"

	"vlasov6d/internal/advect"
	"vlasov6d/internal/par"
	"vlasov6d/internal/phase"
)

// Solver advances a phase-space grid in time.
type Solver struct {
	g     *phase.Grid
	proto advect.Scheme

	// BoundaryLoss accumulates the mass that has left the velocity grid
	// through its open boundary (in f·d³x·d³u units), a diagnostic for
	// choosing UMax.
	BoundaryLoss float64

	// pool holds per-worker sweep scratch (a line buffer + scheme clones),
	// grown on demand and reused across steps so steady-state stepping
	// allocates nothing.
	pool *par.Pool[worker]
	// cfl is the reusable per-velocity-index CFL table of driftAxis.
	cfl []float64
	// axes is the cube geometry around each velocity axis (the grid's
	// extents are fixed for the life of the solver).
	axes [3]cubeAxis
	// kg/dg carry the geometry of the sweep in flight: written before the
	// serial or parallel range calls of one axis, read-only during them
	// (axes advance strictly one at a time).
	kg kickGeom
	dg driftGeom
}

// kickGeom is the line geometry of one velocity-axis kick sweep.
type kickGeom struct {
	dt, du float64
	acc    []float64
	d      int
}

// driftGeom is the line geometry of one spatial-axis drift sweep.
type driftGeom struct {
	cfl        []float64
	nLine      int
	cellStride int
	ncube      int
	d          int
}

// cubeAxis is the geometry of a velocity cube around one velocity axis d:
// the cube offsets of the elements with index 0 along d, and the stride
// between consecutive indices. Each offset starts one line along d (a kick
// sweeps all of them in one call); adding j·stride gives the elements that
// share the velocity index j, whose CFL number a drift along spatial axis d
// shares.
type cubeAxis struct {
	offs   []int
	stride int
}

func newCubeAxis(nu [3]int, d int) cubeAxis {
	outer, inner := 1, 1
	for k := 0; k < d; k++ {
		outer *= nu[k]
	}
	for k := d + 1; k < 3; k++ {
		inner *= nu[k]
	}
	offs := make([]int, 0, outer*inner)
	for o := 0; o < outer; o++ {
		for in := 0; in < inner; in++ {
			offs = append(offs, o*nu[d]*inner+in)
		}
	}
	return cubeAxis{offs: offs, stride: inner}
}

// New creates a solver whose periodic position drift uses the named advection
// scheme ("slmpp5" for the paper's method; "mp5", "upwind1", "laxwendroff2"
// for comparisons). The open-boundary velocity kick always uses SL-MPP5, the
// only scheme with an open-line form.
func New(g *phase.Grid, scheme string) (*Solver, error) {
	if g == nil {
		return nil, fmt.Errorf("vlasov: nil grid")
	}
	s, err := advect.New(scheme)
	if err != nil {
		return nil, err
	}
	sol := &Solver{g: g, proto: s}
	sol.pool = par.NewPool(sol.newWorker)
	for d := range sol.axes {
		sol.axes[d] = newCubeAxis(g.NU, d)
	}
	return sol, nil
}

// SetWorkers pins the worker count (tests use 1 for determinism).
func (s *Solver) SetWorkers(n int) { s.pool.SetWorkers(n) }

// SuggestDT returns a time step that keeps the position-space CFL at
// cflX (the semi-Lagrangian scheme has no stability limit, but accuracy and
// the ghost-exchange width favour CFL ≲ 1) and the velocity-space half-kick
// CFL at cflU. A driver that applies two adjacent half kicks as one Kick
// sweeps at up to 2·cflU, which the default 0.4 keeps below one cell; the
// open-line scheme is exact in mass and sign at any CFL.
func (s *Solver) SuggestDT(a float64, acc [3][]float64, cflX, cflU float64) float64 {
	g := s.g
	dt := math.Inf(1)
	for d := 0; d < 3; d++ {
		dtx := cflX * g.DX(d) * a * a / g.UMax
		if dtx < dt {
			dt = dtx
		}
		if acc[d] == nil {
			continue
		}
		aMax := 0.0
		for _, v := range acc[d] {
			if av := math.Abs(v); av > aMax {
				aMax = av
			}
		}
		if aMax > 0 {
			dtu := 2 * cflU * g.DU(d) / aMax
			if dtu < dt {
				dt = dtu
			}
		}
	}
	return dt
}

// Step advances one full time step of eq. (5):
// u-kicks(dt/2) → x-drifts(dt) → u-kicks(dt/2).
// acc holds the acceleration −∇φ per spatial cell (flat index). The paper's
// sequence applies the same potential in both half-kicks; the hybrid driver
// refreshes acc between steps.
func (s *Solver) Step(dt, a float64, acc [3][]float64) error {
	if err := s.KickHalf(dt, acc); err != nil {
		return err
	}
	if err := s.Drift(dt, a); err != nil {
		return err
	}
	return s.KickHalf(dt, acc)
}

// KickHalf applies the three velocity-space advections for dt/2.
func (s *Solver) KickHalf(dt float64, acc [3][]float64) error {
	return s.Kick(dt/2, acc)
}

// Kick applies the three velocity-space advections for the interval h.
// Advections along different velocity axes commute and a kick moves no
// density, so consecutive kicks under one acc are one kick of the summed
// interval — with one interpolation, and one float32 rounding, not two.
func (s *Solver) Kick(h float64, acc [3][]float64) error {
	ncell := s.g.NCells()
	for d := 0; d < 3; d++ {
		if len(acc[d]) != ncell {
			return fmt.Errorf("vlasov: acc[%d] length %d != %d cells", d, len(acc[d]), ncell)
		}
	}
	for d := 0; d < 3; d++ {
		if err := s.kickAxis(d, h, acc[d]); err != nil {
			return err
		}
	}
	return nil
}

// Drift applies the three position-space advections for dt.
func (s *Solver) Drift(dt, a float64) error {
	for d := 0; d < 3; d++ {
		if err := s.driftAxis(d, dt, a); err != nil {
			return err
		}
	}
	return nil
}

// kickAxis advects every velocity cube along velocity axis d with the
// per-cell CFL  c = acc·dt / Δu  (the minus sign of eq. (4) is carried by
// the advection velocity being −∂φ/∂x = acc).
func (s *Solver) kickAxis(d int, dt float64, accD []float64) error {
	g := s.g
	s.kg = kickGeom{dt: dt, du: g.DU(d), acc: accD, d: d}
	ncell := g.NCells()
	return s.sweep(ncell, (*Solver).kickRange)
}

// kickRange advects the velocity cubes of spatial cells [lo, hi) along the
// axis described by s.kg. All lines of a cube share the cell's acceleration
// and go through the scheme in one call.
func (s *Solver) kickRange(w *worker, lo, hi int) error {
	g := s.g
	kg := &s.kg
	offs, stride := s.axes[kg.d].offs, s.axes[kg.d].stride
	n := g.NU[kg.d]
	for cell := lo; cell < hi; cell++ {
		c := kg.acc[cell] * kg.dt / kg.du
		if c == 0 {
			continue
		}
		lost, err := w.open.StepStrided(g.CubeAt(cell), offs, stride, n, c, true)
		if err != nil {
			return err
		}
		w.loss += lost // raw Σf; converted to mass units in addLoss
	}
	return nil
}

// driftAxis advects along spatial axis d with per-velocity-index CFL
// c = u_d·dt/(a²·Δx). Lines are periodic across the box.
func (s *Solver) driftAxis(d int, dt, a float64) error {
	g := s.g
	dx := g.DX(d)
	nu := g.NU
	// Precompute CFL per velocity index along d into the reusable table.
	nud := nu[d]
	if cap(s.cfl) < nud {
		s.cfl = make([]float64, nud)
	}
	cfl := s.cfl[:nud]
	for j := 0; j < nud; j++ {
		cfl[j] = g.U(d, j) * dt / (a * a * dx)
	}
	// Spatial line geometry.
	var nLine, cellStride, nPerpSpace int
	switch d {
	case 0:
		nLine, cellStride, nPerpSpace = g.NX, g.NY*g.NZ, g.NY*g.NZ
	case 1:
		nLine, cellStride, nPerpSpace = g.NY, g.NZ, g.NX*g.NZ
	default:
		nLine, cellStride, nPerpSpace = g.NZ, 1, g.NX*g.NY
	}
	if nLine < 6 {
		return fmt.Errorf("vlasov: spatial extent %d along axis %d < 6 (SL-MPP5 stencil)", nLine, d)
	}
	s.dg = driftGeom{cfl: cfl, nLine: nLine, cellStride: cellStride, ncube: g.NCube(), d: d}
	// Parallelise over perpendicular spatial columns; each column sweeps all
	// velocity elements.
	return s.sweep(nPerpSpace, (*Solver).driftRange)
}

// driftRange advects perpendicular spatial columns [lo, hi) along the axis
// described by s.dg. Within a column, the cube elements that share the
// velocity index along the axis share the CFL number; their lines go through
// the scheme in one call.
func (s *Solver) driftRange(w *worker, lo, hi int) error {
	g := s.g
	dg := &s.dg
	offs, stride := s.axes[dg.d].offs, s.axes[dg.d].stride
	str := dg.cellStride * dg.ncube
	for p := lo; p < hi; p++ {
		col := g.Data[spatialPerpOffset(dg.d, p, g)*dg.ncube:]
		for j, c := range dg.cfl {
			if c == 0 {
				continue
			}
			if err := advect.StepStrided(w.per, w.line, col[j*stride:], offs, str, dg.nLine, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// spatialPerpOffset returns the flat spatial cell index of the p-th
// perpendicular column for axis d (the column's first cell).
func spatialPerpOffset(d, p int, g *phase.Grid) int {
	switch d {
	case 0: // lines vary ix; perp = (iy, iz)
		return p
	case 1: // lines vary iy; perp = (ix, iz)
		ix, iz := p/g.NZ, p%g.NZ
		return ix*g.NY*g.NZ + iz
	default: // lines vary iz; perp = (ix, iy)
		return p * g.NZ
	}
}

// worker carries per-goroutine scratch.
type worker struct {
	line []float64     // one spatial line, for a comparison scheme's drift
	per  advect.Scheme // periodic stepper
	open *advect.SLMPP5
	loss float64
}

func (s *Solver) newWorker() *worker {
	g := s.g
	return &worker{
		line: make([]float64, max(g.NX, g.NY, g.NZ)),
		per:  s.proto.Clone(),
		open: advect.NewSLMPP5(),
	}
}

// sweep runs one axis sweep over its n independent work items: split into one
// contiguous range per worker, each running the range method with its pooled
// scratch; every worker's boundary loss is folded in afterwards, in worker
// order. One worker is a direct call — no goroutines or closures — which
// keeps the steady-state single-worker step allocation-free.
func (s *Solver) sweep(n int, run func(*Solver, *worker, int, int) error) error {
	nw := s.pool.Workers(n)
	var err error
	if nw <= 1 {
		err = run(s, s.pool.Worker(0), 0, n)
	} else {
		err = s.pool.Ranges(n, nw, func(w *worker, lo, hi int) error { return run(s, w, lo, hi) })
	}
	for k := 0; k < nw; k++ {
		s.addLoss(s.pool.Worker(k))
	}
	return err
}

func (s *Solver) addLoss(w *worker) {
	if w.loss == 0 {
		return
	}
	g := s.g
	// w.loss is a raw Σf over lost cell values; one phase-space cell has
	// volume Δx³·Δu³, giving the escaped mass.
	vol := g.DX(0) * g.DX(1) * g.DX(2)
	du3 := g.DU(0) * g.DU(1) * g.DU(2)
	s.BoundaryLoss += w.loss * vol * du3
	w.loss = 0
}
