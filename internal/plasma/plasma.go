// Package plasma implements the classic 1D1V electrostatic Vlasov–Poisson
// system with the same SL-MPP5 advection machinery used by the 6D
// cosmological solver. The paper (§8) singles out electrostatic and
// magnetised plasma as the natural next applications of the scheme; this
// package provides the canonical validation problems every Vlasov code is
// measured against — linear Landau damping and the two-stream instability —
// with analytically known rates.
//
// Equations (electron plasma, immobile neutralising ions, normalised units
// with ω_p = 1, Debye length = 1):
//
//	∂f/∂t + v·∂f/∂x − E(x)·∂f/∂v = 0,
//	∂E/∂x = ρ(x) − 1,   ρ = ∫ f dv.
//
// Time stepping is the Strang splitting v-kick(dt/2), x-drift(dt),
// v-kick(dt/2) in its leapfrog form: a kick leaves ρ and hence E unchanged,
// so the closing kick of one step and the opening kick of the next are one
// kick of (dtₙ + dtₙ₊₁)/2 under one field. Step ends after the field solve
// that follows its drift — the step's only one, cached for SuggestDT,
// Diagnostics and the next kick — and leaves the closing half kick owed;
// Synchronize pays it. Mass, density and field energy are unchanged by the
// owed kick (to the rounding of a conservative sweep); the velocity
// structure of F lags by it. Checkpoint and CaptureCheckpoint synchronise
// first, and so does runner.Run on every exit.
package plasma

import (
	"fmt"
	"math"
	"math/cmplx"

	"vlasov6d/internal/advect"
	"vlasov6d/internal/fft"
	"vlasov6d/internal/par"
	"vlasov6d/internal/runner"
)

// Solver advances f(x, v) on a periodic x ∈ [0, L) and open v ∈ [−Vmax, Vmax).
type Solver struct {
	NX, NV int
	L      float64
	VMax   float64
	// F is the distribution, row-major [NX][NV].
	F []float64
	// Time is the elapsed plasma time ω_p·t, advanced by Step. It doubles
	// as the runner clock, so Run(ctx, s, T) integrates to t = T.
	Time float64
	// CFL is the target CFL number SuggestDT aims for (default 0.4; the
	// semi-Lagrangian scheme tolerates larger values at reduced accuracy).
	CFL float64

	per    advect.Scheme // the prototype each pool worker clones
	scheme string
	plan   *fft.Plan
	rho    []float64
	e      []float64
	fieldC []complex128
	// fieldValid says that e is the field of the current F: set by the field
	// solve, cleared by whatever changes the density.
	fieldValid bool
	// owed is the kick interval the last Step left unapplied (half its dt;
	// zero for a fresh, restored, refilled or synchronised solver).
	owed float64
	// pool holds the sweep workers (default GOMAXPROCS of them, pinned with
	// SetWorkers), grown on demand and reused across steps (schemes hold
	// scratch and are cloned per worker); worker 0 is the serial path's.
	// Lines are independent, so the worker count never changes the physics.
	pool *par.Pool[pworker]
}

// NewWithScheme allocates a solver whose periodic x-drift uses the named
// advection scheme (see advect.Names; "slmpp5" is the paper's) — the knob
// scheme-comparison sweeps turn. nx and nv must be at least 6 (stencil
// width). The open-boundary v-kick always uses SL-MPP5, the only scheme with
// an open-line form; the drift is where the schemes differ in dissipation
// and phase error, so the comparison isolates exactly that.
func NewWithScheme(nx, nv int, boxL, vmax float64, scheme string) (*Solver, error) {
	if nx < 6 || nv < 6 {
		return nil, fmt.Errorf("plasma: grid %dx%d below stencil width", nx, nv)
	}
	if boxL <= 0 || vmax <= 0 {
		return nil, fmt.Errorf("plasma: invalid domain L=%v Vmax=%v", boxL, vmax)
	}
	per, err := advect.New(scheme)
	if err != nil {
		return nil, err
	}
	plan, err := fft.NewPlan(nx)
	if err != nil {
		return nil, err
	}
	return &Solver{
		NX: nx, NV: nv, L: boxL, VMax: vmax,
		CFL:    0.4,
		F:      make([]float64, nx*nv),
		per:    per,
		scheme: scheme,
		plan:   plan,
		rho:    make([]float64, nx),
		e:      make([]float64, nx),
		fieldC: make([]complex128, nx),
		pool: par.NewPool(func() *pworker {
			return &pworker{line: make([]float64, nx), per: per.Clone(), open: advect.NewSLMPP5()}
		}),
	}, nil
}

// Scheme returns the name of the periodic x-drift advection scheme.
func (s *Solver) Scheme() string { return s.scheme }

// SetWorkers pins the intra-step worker count of the drift and kick sweeps
// (minimum 1), implementing runner.WorkerBudgeted so a scheduler-owned core
// budget can resize a running solver between steps. Every sweep line is
// independent and computed identically, so the state evolution is
// bit-identical for any worker count — the budget trades only wall-clock.
func (s *Solver) SetWorkers(n int) { s.pool.SetWorkers(n) }

// pworker carries per-goroutine sweep scratch: a gather buffer and private
// scheme instances (schemes hold scratch state and are not safe for
// concurrent use).
type pworker struct {
	line []float64
	per  advect.Scheme
	open *advect.SLMPP5
}

// DX returns the spatial cell width.
func (s *Solver) DX() float64 { return s.L / float64(s.NX) }

// DV returns the velocity cell width.
func (s *Solver) DV() float64 { return 2 * s.VMax / float64(s.NV) }

// X returns the cell-centre coordinate of spatial index i.
func (s *Solver) X(i int) float64 { return (float64(i) + 0.5) * s.DX() }

// V returns the cell-centre velocity of index j.
func (s *Solver) V(j int) float64 { return -s.VMax + (float64(j)+0.5)*s.DV() }

// Fill evaluates f(x, v) at every cell centre. The new state is a
// synchronised one: nothing of the old field or of an owed kick carries over.
func (s *Solver) Fill(f func(x, v float64) float64) {
	s.fieldValid, s.owed = false, 0
	for i := 0; i < s.NX; i++ {
		x := s.X(i)
		for j := 0; j < s.NV; j++ {
			s.F[i*s.NV+j] = f(x, s.V(j))
		}
	}
}

// Density returns ρ(x) = ∫ f dv.
func (s *Solver) Density() []float64 {
	dv := s.DV()
	for i := 0; i < s.NX; i++ {
		sum := 0.0
		row := s.F[i*s.NV : (i+1)*s.NV]
		for _, v := range row {
			sum += v
		}
		s.rho[i] = sum * dv
	}
	return s.rho
}

// ElectricField solves Gauss's law ∂E/∂x = ⟨ρ⟩ − ρ (the electrons carry
// negative charge against the uniform neutralising ion background; with the
// force term −E·∂f/∂v of the header this makes density clumps repel
// electrons, i.e. plasma oscillations rather than gravitational collapse).
// The mean of E is zero (no external field).
func (s *Solver) ElectricField() []float64 {
	rho := s.Density()
	data := s.fieldC
	mean := 0.0
	for _, v := range rho {
		mean += v
	}
	mean /= float64(s.NX)
	for i, v := range rho {
		data[i] = complex(mean-v, 0)
	}
	s.plan.Forward(data)
	kf := 2 * math.Pi / s.L
	for m := range data {
		mm := m
		if mm > s.NX/2 {
			mm -= s.NX
		}
		if mm == 0 {
			data[m] = 0
			continue
		}
		k := kf * float64(mm)
		// E_k = ρ_k/(i k)  ⇐  ikE_k = ρ_k.
		data[m] /= complex(0, k)
	}
	s.plan.Inverse(data)
	for i := range s.e {
		s.e[i] = real(data[i])
	}
	s.fieldValid = true
	return s.e
}

// FieldEnergy returns ∫ E²/2 dx, the standard Landau-damping diagnostic.
func (s *Solver) FieldEnergy() float64 {
	e := s.ElectricField()
	sum := 0.0
	for _, v := range e {
		sum += v * v
	}
	return 0.5 * sum * s.DX()
}

// currentField returns E(x) for the current state without a redundant
// Poisson solve: the field a Step solves after its drift stays exact until
// the density next changes (kicks advect in v only). Every consumer on the
// step path (the kick, SuggestDT, Diagnostics) goes through here so the
// invariant lives in exactly one place.
func (s *Solver) currentField() []float64 {
	if !s.fieldValid {
		return s.ElectricField()
	}
	return s.e
}

// fieldEnergyCached evaluates ∫ E²/2 dx from currentField — the per-step
// diagnostics path, free of Poisson solves.
func (s *Solver) fieldEnergyCached() float64 {
	sum := 0.0
	for _, v := range s.currentField() {
		sum += v * v
	}
	return 0.5 * sum * s.DX()
}

// TotalMass returns ∫f dx dv.
func (s *Solver) TotalMass() float64 {
	sum := 0.0
	for _, v := range s.F {
		sum += v
	}
	return sum * s.DX() * s.DV()
}

// Step advances one splitting step: one v-kick of the half the previous step
// left owed plus dt/2, the x-drift(dt), and the field solve at the new
// density. The closing v-kick(dt/2) is left owed to the next Step or to
// Synchronize (see the package comment).
func (s *Solver) Step(dt float64) error {
	if err := s.kick(s.owed+dt/2, s.currentField()); err != nil {
		return err
	}
	s.owed = 0
	if err := s.drift(dt); err != nil {
		return err
	}
	s.Time += dt
	s.ElectricField()
	s.owed = dt / 2
	return nil
}

// Synchronize applies the half kick the last Step left owed, bringing the
// velocity structure of F to the time of the clock (runner.Synchronizer). It
// is idempotent, and free on a fresh, restored, refilled or already
// synchronised solver.
func (s *Solver) Synchronize() error {
	if s.owed == 0 {
		return nil
	}
	if err := s.kick(s.owed, s.currentField()); err != nil {
		return err
	}
	s.owed = 0
	// The sweep conserves each row's sum only to rounding, and a restored
	// solver can only solve from the F it reads: the live one must too.
	s.fieldValid = false
	return nil
}

// Clock returns the elapsed plasma time — the runner's run coordinate.
func (s *Solver) Clock() float64 { return s.Time }

// SuggestDT returns a stable step from the CFL targets: the fastest grid
// velocity crossing a spatial cell and the strongest field crossing a
// velocity cell. The drift target is additionally capped at the x-scheme's
// stability limit (SL-MPP5 is unconditional, but MP5/RK3 and the low-order
// baselines require CFL ≤ 1).
func (s *Solver) SuggestDT() float64 {
	cfl := s.CFL
	if m := s.per.MaxCFL(); m > 0 && cfl > m {
		cfl = m
	}
	dt := cfl * s.DX() / s.VMax
	e := s.currentField()
	emax := 0.0
	for _, v := range e {
		if a := math.Abs(v); a > emax {
			emax = a
		}
	}
	if emax > 0 {
		if d := s.CFL * s.DV() / emax; d < dt {
			dt = d
		}
	}
	return dt
}

// Diagnostics reports time, total mass and the field energy (the standard
// Landau-damping / two-stream observable). The result is a value snapshot
// with a fresh Extra map — the runner's contract for off-thread (async
// observer) delivery — and the field energy comes from the field the step
// solved after its drift, so the step-path diagnostics cost no Poisson solve.
// All three read the same whether or not a half kick is owed.
func (s *Solver) Diagnostics() runner.Diagnostics {
	return runner.Diagnostics{
		Clock: s.Time,
		Time:  s.Time,
		Mass:  s.TotalMass(),
		Extra: map[string]float64{"field_energy": s.fieldEnergyCached()},
	}
}

// drift advances ∂f/∂t + v ∂f/∂x = 0: for each velocity index the x-line is
// periodic with CFL v·dt/Δx. Lines (velocity indices) are independent and
// sweep in parallel over the solver's workers.
func (s *Solver) drift(dt float64) error {
	s.fieldValid = false
	dx := s.DX()
	nw := s.pool.Workers(s.NV)
	if nw <= 1 {
		return s.driftRange(s.pool.Worker(0), 0, s.NV, dt, dx)
	}
	return s.pool.Ranges(s.NV, nw, func(w *pworker, lo, hi int) error {
		return s.driftRange(w, lo, hi, dt, dx)
	})
}

func (s *Solver) driftRange(w *pworker, lo, hi int, dt, dx float64) error {
	for j := lo; j < hi; j++ {
		c := s.V(j) * dt / dx
		if c == 0 {
			continue
		}
		line := w.line[:s.NX]
		for i := 0; i < s.NX; i++ {
			line[i] = s.F[i*s.NV+j]
		}
		if err := w.per.Step(line, c); err != nil {
			return err
		}
		for i := 0; i < s.NX; i++ {
			s.F[i*s.NV+j] = line[i]
		}
	}
	return nil
}

// kick advances ∂f/∂t − E ∂f/∂v = 0 under the field e: each spatial row is
// an open v-line with CFL −E·dt/Δv. The rows are disjoint in-place slices
// and sweep in parallel.
func (s *Solver) kick(dt float64, e []float64) error {
	dv := s.DV()
	nw := s.pool.Workers(s.NX)
	if nw <= 1 {
		return s.kickRange(s.pool.Worker(0), 0, s.NX, dt, dv, e)
	}
	return s.pool.Ranges(s.NX, nw, func(w *pworker, lo, hi int) error {
		return s.kickRange(w, lo, hi, dt, dv, e)
	})
}

func (s *Solver) kickRange(w *pworker, lo, hi int, dt, dv float64, e []float64) error {
	for i := lo; i < hi; i++ {
		c := -e[i] * dt / dv
		if c == 0 {
			continue
		}
		row := s.F[i*s.NV : (i+1)*s.NV]
		if err := w.open.StepOpen(row, c); err != nil {
			return err
		}
	}
	return nil
}

// DriftStep applies one full x-drift sweep and KickStep one full v-kick
// (field refresh included) in isolation — the two halves of the split
// operator, exposed so the bench harness can profile them separately.
func (s *Solver) DriftStep(dt float64) error { return s.drift(dt) }

// KickStep applies one v-kick sweep with a fresh field solve; see DriftStep.
func (s *Solver) KickStep(dt float64) error { return s.kick(dt, s.ElectricField()) }

// LandauInit sets the standard Landau-damping initial condition
// f = (1 + α·cos(kx))·Maxwellian(v; vth).
func (s *Solver) LandauInit(alpha, k, vth float64) {
	norm := 1 / (math.Sqrt(2*math.Pi) * vth)
	s.Fill(func(x, v float64) float64 {
		return (1 + alpha*math.Cos(k*x)) * norm * math.Exp(-v*v/(2*vth*vth))
	})
}

// TwoStreamInit sets two counter-streaming Maxwellian beams at ±v0 with a
// seed perturbation.
func (s *Solver) TwoStreamInit(alpha, k, v0, vth float64) {
	norm := 1 / (2 * math.Sqrt(2*math.Pi) * vth)
	s.Fill(func(x, v float64) float64 {
		b := math.Exp(-(v-v0)*(v-v0)/(2*vth*vth)) + math.Exp(-(v+v0)*(v+v0)/(2*vth*vth))
		return (1 + alpha*math.Cos(k*x)) * norm * b
	})
}

// LandauDampingRate returns the Landau damping rate γ (negative) of the
// Langmuir wave at wavenumber k for a Maxwellian with thermal speed vth,
// solving the kinetic dispersion relation 1 + (1+ζZ(ζ))/ (k λ_D)² = 0 for
// the least-damped root via Newton iteration on the plasma dispersion
// function Z (computed from the complex complementary error function).
func LandauDampingRate(k, vth float64) float64 {
	kl := k * vth
	// Initial guess from the Bohm-Gross branch with the textbook asymptotic
	// damping estimate.
	om := math.Sqrt(1 + 3*kl*kl)
	gamma := -math.Sqrt(math.Pi/8) / (kl * kl * kl) *
		math.Exp(-om*om/(2*kl*kl))
	zeta := complex(om, gamma) / complex(math.Sqrt2*kl, 0)
	f := func(z complex128) complex128 {
		return 1 + (1+z*plasmaZ(z))/complex(kl*kl, 0)
	}
	// Newton with numerical derivative.
	for it := 0; it < 60; it++ {
		h := complex(1e-7, 0)
		df := (f(zeta+h) - f(zeta-h)) / (2 * h)
		step := f(zeta) / df
		zeta -= step
		if cmplx.Abs(step) < 1e-14 {
			break
		}
	}
	omega := zeta * complex(math.Sqrt2*kl, 0)
	return imag(omega)
}

// plasmaZ is the plasma dispersion function Z(ζ) = i√π·w(ζ) with w the
// Faddeeva function, evaluated by a continued fraction for large |ζ| and by
// a series + Dawson relation near the origin (upper half-plane; analytic
// continuation below via the residue term).
func plasmaZ(z complex128) complex128 {
	w := faddeeva(z)
	return complex(0, math.Sqrt(math.Pi)) * w
}

// faddeeva computes w(z) = e^{-z²} erfc(−iz). For Im z > 0 it evaluates the
// defining Hilbert-transform integral
//
//	w(z) = (i/π) ∫ e^{−t²}/(z−t) dt
//
// with the trapezoid rule, which converges exponentially (error
// ~e^{−2πd/h} with d the pole distance from the real axis); the lower
// half-plane uses the reflection w(z) = 2e^{−z²} − w(−z̄)̄… specifically
// w(−z) via the standard symmetry. This path only runs inside the
// dispersion-relation Newton solve, never per grid cell, so the O(10⁴)
// quadrature points are irrelevant to performance.
func faddeeva(z complex128) complex128 {
	if imag(z) < 0 {
		return 2*cmplx.Exp(-z*z) - faddeeva(-z)
	}
	if cmplx.Abs(z) <= 4 {
		// w(z) = e^{−z²}·(1 − erf(−iz)) with erf from its Maclaurin series,
		// which converges comfortably in double precision for |z| ≤ 4.
		u := complex(0, -1) * z // −iz
		term := u
		sum := u
		u2 := u * u
		for n := 1; n < 120; n++ {
			term *= -u2 / complex(float64(n), 0)
			add := term / complex(float64(2*n+1), 0)
			sum += add
			if cmplx.Abs(add) < 1e-18*cmplx.Abs(sum) {
				break
			}
		}
		erf := sum * complex(2/math.Sqrt(math.Pi), 0)
		return cmplx.Exp(-z*z) * (1 - erf)
	}
	// Large |z|: Lentz continued fraction
	// w(z) = (i/√π)/(z − (1/2)/(z − 1/(z − (3/2)/(z − …)))).
	f := complex(0, 0)
	for n := 40; n >= 1; n-- {
		f = complex(float64(n)/2, 0) / (z - f)
	}
	return complex(0, 1/math.Sqrt(math.Pi)) / (z - f)
}
