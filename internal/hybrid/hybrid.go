// Package hybrid couples the six-dimensional Vlasov solver (massive
// neutrinos) with the TreePM N-body solver (CDM) into the paper's hybrid
// simulation (§5.1.2): both components source one gravitational potential —
// the CIC-deposited particle density plus the velocity-space moment of f on
// a shared PM mesh — and both are advanced through the same kick-drift-kick
// cycle with comoving coordinates and canonical velocities u = a²ẋ. The
// cycle steps in ln a: a step of Δ takes a to a·e^Δ, kicks by the cosmic
// time ∫dt of each half step and drifts by ∫dt/a² (cosmo.StepFactors).
//
// The cycle runs in its leapfrog form. A kick moves no density, so the
// closing half kick of step n and the opening half kick of step n+1 use the
// same acceleration, and kicks along the velocity axes commute: the two are
// one kick of their summed intervals. Step therefore ends after the force
// evaluation that follows its drift and records the half kick it owes; the
// next Step opens with one kick of owed + its own first half — six Vlasov
// sweeps and one PM solve per step where the literal sequence pays nine and
// two — and Synchronize pays the debt on demand. While a half kick is owed,
// positions, the ν density, masses and the boundary-loss total are those of
// the step's end; velocities and the velocity structure of f lag by the owed
// kick. Every snapshot is taken of a synchronised state (Checkpoint calls
// Synchronize first, which also leaves the live state synchronised with the
// file), and runner.Run synchronises on every exit, so the state a caller
// finds after Run, and the state any checkpoint restores, is the
// kick-drift-kick state. The last bits of a run depend on where it
// was synchronised — each synchronisation rounds the float32 f once more —
// while a run restored from any checkpoint continues bit for bit like the
// live run that wrote it.
//
// Per-step wall-clock time is accounted separately for the Vlasov, tree, PM
// and moment phases, mirroring the decomposition of the paper's Fig. 7, and
// feeds the machine model that reproduces Tables 3–4.
package hybrid

import (
	"fmt"
	"io"
	"math"
	"time"

	"vlasov6d/internal/cosmo"
	"vlasov6d/internal/ic"
	"vlasov6d/internal/nbody"
	"vlasov6d/internal/phase"
	"vlasov6d/internal/poisson"
	"vlasov6d/internal/runner"
	"vlasov6d/internal/snapio"
	"vlasov6d/internal/tree"
	"vlasov6d/internal/vlasov"
)

// The step and grid factors every hybrid run uses.
const (
	// umaxFactor sets the velocity grid's extent UMax = umaxFactor·u_T (the
	// Fermi-Dirac tail holds ~1e-3 of the mass beyond 12 u_T).
	umaxFactor = 12
	// cflX and cflU are the Vlasov CFL targets of the position drift and
	// the velocity kick.
	cflX, cflU = 0.4, 0.4
	// maxDLnA caps the step in ln a.
	maxDLnA = 0.02
)

// Config assembles a hybrid run. The paper's ratios are the defaults: the
// PM mesh is PMFactor× finer than the Vlasov spatial grid per side
// (N_PM = 3³·N_x when N_CDM = 9³·N_x and N_PM = N_CDM/3³), and the velocity
// grid spans umaxFactor = 12 Fermi-Dirac thermal scales.
type Config struct {
	Par cosmo.Params
	// Box is the comoving box size (h⁻¹Mpc).
	Box float64
	// NGrid is the Vlasov spatial grid per side (N_x^{1/3}).
	NGrid int
	// NU is the velocity grid per side (paper: 64).
	NU int
	// NPartSide is the CDM particle count per side (paper: 9·NGrid).
	NPartSide int
	// PMFactor is the PM-mesh refinement over the Vlasov grid (paper: 3).
	PMFactor int
	// PMMesh overrides the PM mesh side directly (0 = derive from
	// NGrid·PMFactor, or NPartSide/3 in NoNeutrino mode).
	PMMesh int
	// Scheme names the Vlasov position-drift scheme (default "slmpp5"); the
	// velocity kick is always SL-MPP5 (see vlasov.New).
	Scheme string
	// Theta is the tree opening angle (default 0.5).
	Theta float64
	// Seed feeds the initial-condition generator.
	Seed int64
	// NoTree disables the short-range force (PM-only N-body).
	NoTree bool
	// NoNeutrino disables the Vlasov component entirely (pure N-body
	// control run).
	NoNeutrino bool
	// NuParticles switches the neutrino component from the Vlasov grid to
	// TianNu-style particles (the §5.4 baseline): NNuSide³ particles with
	// Fermi-Dirac thermal velocities, evolved with PM-only gravity.
	NuParticles bool
	// NNuSide is the neutrino particle count per side (paper: 2·N_CDM side,
	// i.e. 8× the CDM count; default 2·NPartSide).
	NNuSide int
	// Workers pins the intra-step worker count from construction onwards
	// (0 = each component's GOMAXPROCS default). Setting it makes the
	// expensive parts of construction — the 6D grid fill and the particle
	// displacement pass run through the phase grid and PM solver — respect
	// a scheduler core lease instead of bursting to GOMAXPROCS before the
	// first step; SetWorkers can still resize the simulation later.
	Workers int
}

// ApplyDefaults fills every unset (zero-valued) optional field with the
// paper's value. It never touches a field the caller set explicitly, so a
// negative or otherwise invalid setting survives to Validate and produces a
// descriptive error instead of being silently replaced.
func (c *Config) ApplyDefaults() {
	if c.PMFactor == 0 {
		c.PMFactor = 3
	}
	if c.Scheme == "" {
		c.Scheme = "slmpp5"
	}
	if c.Theta == 0 {
		c.Theta = 0.5
	}
	if c.NuParticles && c.NNuSide == 0 {
		c.NNuSide = 2 * c.NPartSide
	}
}

// Validate checks a defaulted Config and returns a descriptive error for
// the first problem found. Everything a later Step would trip over —
// non-positive domains, stencil-starved grids, PM meshes that are not an
// integer refinement of the Vlasov grid — is rejected here, at construction
// time.
func (c *Config) Validate() error {
	if err := c.Par.Validate(); err != nil {
		return err
	}
	if c.Box <= 0 {
		return fmt.Errorf("hybrid: Box = %g h⁻¹Mpc; the comoving box size must be positive", c.Box)
	}
	if c.NGrid < 0 || c.NU < 0 {
		return fmt.Errorf("hybrid: negative grid shape NGrid = %d, NU = %d", c.NGrid, c.NU)
	}
	if c.NuParticles && c.NoNeutrino {
		return fmt.Errorf("hybrid: NuParticles and NoNeutrino are exclusive")
	}
	if !c.NoNeutrino {
		if c.NGrid < 6 {
			return fmt.Errorf("hybrid: NGrid = %d; the SL-MPP5 stencil needs ≥ 6 spatial cells per side", c.NGrid)
		}
		if c.NU < 6 {
			return fmt.Errorf("hybrid: NU = %d; the SL-MPP5 stencil needs ≥ 6 velocity cells per side", c.NU)
		}
	}
	if c.NPartSide < 2 {
		return fmt.Errorf("hybrid: NPartSide = %d; need ≥ 2 CDM particles per side", c.NPartSide)
	}
	if c.PMFactor < 1 {
		return fmt.Errorf("hybrid: PMFactor = %d; must be ≥ 1 (zero selects the paper's 3)", c.PMFactor)
	}
	if c.Theta <= 0 {
		return fmt.Errorf("hybrid: tree opening angle Theta = %g; must be positive (zero selects 0.5)", c.Theta)
	}
	if c.PMMesh < 0 {
		return fmt.Errorf("hybrid: PMMesh = %d; must be non-negative (zero derives it from NGrid·PMFactor)", c.PMMesh)
	}
	if c.PMMesh > 0 && !c.NoNeutrino && !c.NuParticles {
		if c.PMMesh < c.NGrid || c.PMMesh%c.NGrid != 0 {
			return fmt.Errorf("hybrid: PMMesh = %d is not an integer refinement of NGrid = %d; "+
				"force downsampling and moment resampling need PMMesh = k·NGrid", c.PMMesh, c.NGrid)
		}
	}
	if c.NuParticles && c.NNuSide < 2 {
		return fmt.Errorf("hybrid: NNuSide = %d; need ≥ 2 neutrino particles per side", c.NNuSide)
	}
	if c.Workers < 0 {
		return fmt.Errorf("hybrid: Workers = %d; must be non-negative (zero selects GOMAXPROCS)", c.Workers)
	}
	return nil
}

// Timings accumulates wall-clock time per simulation part (the paper's
// Fig. 7 decomposition) and exact counts of the work behind it. Total is
// the time inside Step and inside a Synchronize that had a kick to pay.
type Timings struct {
	Vlasov  time.Duration // Kick + Drift
	Tree    time.Duration
	PM      time.Duration // contains Moments
	Moments time.Duration
	Total   time.Duration
	Steps   int
	// Kick and Drift split Vlasov into its velocity and position sweeps.
	Kick, Drift time.Duration
	// KickSweeps and DriftSweeps count one-dimensional sweeps over the ν
	// grid (three per kick, three per drift); PMEvals and TreeEvals count
	// evaluations of the mesh and tree halves of the force.
	KickSweeps, DriftSweeps, PMEvals, TreeEvals int
}

// Simulation is a live hybrid run.
type Simulation struct {
	Cfg  Config
	Grid *phase.Grid // nil when NoNeutrino or NuParticles
	Part *nbody.Particles
	// NuPart holds the particle-sampled neutrinos in NuParticles mode.
	NuPart *nbody.Particles
	VSol   *vlasov.Solver
	PM     *poisson.Solver

	A    float64 // current scale factor
	Time float64 // cosmic time in internal units, a diagnostic: the kicks' sum
	Tim  Timings

	pmMesh    [3]int
	rs        float64 // TreePM split scale
	soft      float64
	rhoPM     []float64    // scratch: total density on PM mesh
	phi       []float64    // scratch: the full, then the filtered potential
	accCell   [3][]float64 // Vlasov-grid accelerations
	accPart   [3][]float64 // particle accelerations
	accNuPart [3][]float64 // neutrino-particle accelerations (baseline mode)
	nuDens    []float64    // reused neutrino density on the Vlasov grid
	meshAcc   [3][]float64 // reused PM-mesh acceleration components
	accShort  [3][]float64 // tree short-range force, before the 1/a
	tree      *tree.Tree   // built once over Part, rebuilt in place per drift
	uT        float64
	gen       *ic.Generator
	// The force arrays describe the current state when both halves are
	// valid: the PM half (density → potential → mesh acceleration → accCell,
	// accNuPart and the interpolated part of accPart) and the tree half
	// (accShort). Whatever moves a particle invalidates both. A kick moves
	// none, so the forces a step ends on are the ones the next begins with;
	// only Synchronize, which re-rounds a ν grid, leaves the PM half stale.
	pmValid, treeValid bool
	// owed is the kick interval the last Step left unapplied (its second
	// half's cosmic time; zero for a fresh, restored or synchronised one).
	owed float64
	// workers pins the intra-step parallelism of every component (0 =
	// each component's GOMAXPROCS default); set through SetWorkers.
	workers int
}

// SetWorkers pins the intra-step worker count of every parallel component —
// the Vlasov sweeps, the phase-grid moment reductions, the PM FFTs and the
// per-step tree walks — implementing runner.WorkerBudgeted so a
// scheduler-owned core budget can resize a running hybrid simulation
// between steps (minimum 1). All component decompositions are over
// independent lines, cells or particle ranges, so the worker count never
// changes the computed physics. (The Vlasov boundary-loss *diagnostic*
// accumulates across workers in scheduling order and may differ in final
// bits; the evolved state does not.)
func (s *Simulation) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
	if s.VSol != nil {
		s.VSol.SetWorkers(n)
	}
	if s.Grid != nil {
		s.Grid.SetWorkers(n)
	}
	if s.PM != nil {
		s.PM.SetWorkers(n)
	}
}

// New builds a simulation and generates initial conditions at scale factor
// aInit.
func New(cfg Config, aInit float64) (*Simulation, error) {
	if aInit > 1 {
		return nil, fmt.Errorf("hybrid: initial scale factor %v lies in the future (a > 1)", aInit)
	}
	return build(cfg, aInit, true)
}

// build constructs a Simulation. With fill it generates the component
// initial conditions (the 6D grid fill and the particle displacement pass —
// by far the most expensive part of construction); without, it leaves the
// component state (Part, Grid/VSol, NuPart) nil for the caller to install,
// making a checkpoint restore O(state size) instead of O(IC generation).
func build(cfg Config, aInit float64, fill bool) (*Simulation, error) {
	cfg.ApplyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// No upper bound here: a run that reached a = 1 ends a rounding error
	// past it, and its checkpoint must restore.
	if !(aInit > 0) {
		return nil, fmt.Errorf("hybrid: invalid scale factor %v", aInit)
	}
	gen, err := ic.NewGenerator(cfg.Par, cfg.Box, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &Simulation{Cfg: cfg, A: aInit, gen: gen}
	s.workers = cfg.Workers // 0 = component defaults; applied as parts build
	s.Time = cfg.Par.CosmicTime(aInit)
	s.uT = gen.ThermalScale()

	// PM mesh: refinement of the Vlasov grid (or of the particle lattice /
	// 3 when the Vlasov part is disabled, the paper's N_PM = N_CDM/3³ rule).
	nPM := cfg.NGrid * cfg.PMFactor
	if cfg.NoNeutrino {
		nPM = cfg.NPartSide / 3
		if nPM < 4 {
			nPM = 4
		}
	}
	if cfg.PMMesh > 0 {
		nPM = cfg.PMMesh
	}
	s.pmMesh = [3]int{nPM, nPM, nPM}
	pm, err := poisson.NewSolver(s.pmMesh, [3]float64{cfg.Box, cfg.Box, cfg.Box})
	if err != nil {
		return nil, err
	}
	s.PM = pm
	if s.workers > 0 {
		pm.SetWorkers(s.workers)
	}
	cell := cfg.Box / float64(nPM)
	s.rs = 1.25 * cell
	s.soft = cell / 20
	// The tree cutoff 4.5·r_s must fit inside the half-box for the
	// minimum-image walk; on very coarse PM meshes fall back to pure PM
	// (consistent: NoTree solves the unfiltered potential).
	if 4.5*s.rs > cfg.Box/2 {
		s.Cfg.NoTree = true
	}
	s.rhoPM = make([]float64, pm.Size())
	s.phi = make([]float64, pm.Size())
	if !fill {
		return s, nil
	}

	// Components.
	if cfg.NuParticles {
		nuP, err := gen.NeutrinoParticles(cfg.NNuSide, aInit)
		if err != nil {
			return nil, err
		}
		s.installNuParticles(nuP)
	} else if !cfg.NoNeutrino {
		umax := umaxFactor * s.uT
		g, err := phase.New(cfg.NGrid, cfg.NGrid, cfg.NGrid,
			[3]int{cfg.NU, cfg.NU, cfg.NU},
			[3]float64{cfg.Box, cfg.Box, cfg.Box}, umax)
		if err != nil {
			return nil, err
		}
		if s.workers > 0 {
			// The grid fill is the single most expensive part of
			// construction; pin it before it runs, not after.
			g.SetWorkers(s.workers)
		}
		if err := gen.FillNeutrinoGrid(g, aInit); err != nil {
			return nil, err
		}
		if err := s.installGrid(g); err != nil {
			return nil, err
		}
	}
	part, err := gen.CDMParticles(cfg.NPartSide, aInit)
	if err != nil {
		return nil, err
	}
	s.installParticles(part)
	return s, nil
}

// installParticles adopts the CDM particle set and sizes its force arrays.
func (s *Simulation) installParticles(part *nbody.Particles) {
	s.Part = part
	for d := 0; d < 3; d++ {
		s.accPart[d] = make([]float64, part.N)
		s.accShort[d] = make([]float64, part.N)
	}
	s.tree = nil // built over the previous set
	s.pmValid, s.treeValid = false, false
}

// installNuParticles adopts the ν-particle set and sizes its force arrays.
func (s *Simulation) installNuParticles(nuP *nbody.Particles) {
	s.NuPart = nuP
	for d := 0; d < 3; d++ {
		s.accNuPart[d] = make([]float64, nuP.N)
	}
	s.pmValid = false
}

// installGrid adopts the phase-space grid, builds its Vlasov solver, and
// sizes the cell force arrays.
func (s *Simulation) installGrid(g *phase.Grid) error {
	vs, err := vlasov.New(g, s.Cfg.Scheme)
	if err != nil {
		return err
	}
	s.Grid = g
	s.VSol = vs
	s.pmValid = false
	if s.workers > 0 {
		// A pinned worker count survives component (re)installation, e.g. a
		// checkpoint restore into an already-budgeted simulation.
		vs.SetWorkers(s.workers)
		g.SetWorkers(s.workers)
	}
	ncell := g.NCells()
	for d := 0; d < 3; d++ {
		s.accCell[d] = make([]float64, ncell)
	}
	return nil
}

// NeutrinoDensityPM returns the neutrino density moment resampled onto the
// PM mesh (replication: density is intensive), or nil without neutrinos.
func (s *Simulation) NeutrinoDensityPM() []float64 {
	if s.Grid == nil {
		return nil
	}
	out := make([]float64, s.PM.Size())
	s.addNuDensityPM(out)
	return out
}

// addNuDensityPM adds the ν density moment, replicated onto the PM mesh, to
// dst. The velocity-space reduction is charged to the Moments timer.
func (s *Simulation) addNuDensityPM(dst []float64) {
	t0 := time.Now()
	s.nuDens = s.Grid.DensityInto(s.nuDens)
	s.Tim.Moments += time.Since(t0)
	r := s.pmMesh[0] / s.Grid.NX
	nx, ny, nz := s.Grid.NX, s.Grid.NY, s.Grid.NZ
	npmY, npmZ := s.pmMesh[1], s.pmMesh[2]
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			for iz := 0; iz < nz; iz++ {
				v := s.nuDens[(ix*ny+iy)*nz+iz]
				for a := 0; a < r; a++ {
					for b := 0; b < r; b++ {
						base := ((ix*r+a)*npmY + iy*r + b) * npmZ
						for c := 0; c < r; c++ {
							dst[base+iz*r+c] += v
						}
					}
				}
			}
		}
	}
}

// ensureForces brings accCell (Vlasov-grid acceleration from the full
// potential), accNuPart and accPart (particle acceleration: filtered PM +
// tree/a) up to date with the current state, evaluating only the halves
// that are stale.
func (s *Simulation) ensureForces() error {
	if s.pmValid && s.treeValid {
		return nil
	}
	// What invalidates the tree half (a particle moved) invalidates the PM
	// half too, so from here on the PM half is always recomputed.
	if !s.treeValid {
		if err := s.computeTree(); err != nil {
			return err
		}
	}
	if err := s.computePM(); err != nil {
		return err
	}
	s.pmValid, s.treeValid = true, true
	if !s.Cfg.NoTree {
		inva := 1 / s.A
		for d := 0; d < 3; d++ {
			av, sv := s.accPart[d], s.accShort[d]
			for i := range av {
				av[i] += inva * sv[i]
			}
		}
	}
	return nil
}

// computePM is the mesh half of the force: the shared density, transformed
// once; from that spectrum the full potential for the Vlasov grid and the ν
// particles, and the filtered one interpolated to the CDM particles (into
// accPart, overwriting it).
func (s *Simulation) computePM() error {
	coeff := s.Cfg.Par.PoissonCoeff(s.A)
	t0 := time.Now()
	for i := range s.rhoPM {
		s.rhoPM[i] = 0
	}
	if err := s.Part.CICDeposit(s.rhoPM, s.pmMesh); err != nil {
		return err
	}
	if s.NuPart != nil {
		if err := s.NuPart.CICDeposit(s.rhoPM, s.pmMesh); err != nil {
			return err
		}
	}
	if s.Grid != nil {
		s.addNuDensityPM(s.rhoPM)
	}
	if err := s.PM.Transform(s.rhoPM); err != nil {
		return err
	}

	// Full (unfiltered) potential → Vlasov-grid acceleration and (in the
	// baseline mode) the PM-only neutrino-particle acceleration.
	if s.Grid != nil || s.NuPart != nil {
		if _, err := s.PM.Potential(coeff, 0, s.phi); err != nil {
			return err
		}
		if err := s.PM.AccelInto(s.phi, &s.meshAcc); err != nil {
			return err
		}
		if s.Grid != nil {
			s.downsampleAccel(s.meshAcc)
		}
		if s.NuPart != nil {
			for d := 0; d < 3; d++ {
				if err := s.NuPart.CICInterp(s.meshAcc[d], s.pmMesh, s.accNuPart[d]); err != nil {
					return err
				}
			}
		}
	}

	// Filtered potential → particle PM force.
	rsUse := s.rs
	if s.Cfg.NoTree {
		rsUse = 0
	}
	// The full-potential interpolations above are complete, so the potential
	// and mesh acceleration scratch are reused for the filtered potential.
	if _, err := s.PM.Potential(coeff, rsUse, s.phi); err != nil {
		return err
	}
	if err := s.PM.AccelInto(s.phi, &s.meshAcc); err != nil {
		return err
	}
	for d := 0; d < 3; d++ {
		if err := s.Part.CICInterp(s.meshAcc[d], s.pmMesh, s.accPart[d]); err != nil {
			return err
		}
	}
	s.Tim.PM += time.Since(t0)
	s.Tim.PMEvals++
	return nil
}

// computeTree is the short-range half: the octree over the CDM particles,
// rebuilt in place, and one group walk into accShort.
func (s *Simulation) computeTree() error {
	if s.Cfg.NoTree {
		return nil
	}
	t0 := time.Now()
	if s.tree == nil {
		tr, err := tree.Build(s.Part, tree.Options{
			Theta: s.Cfg.Theta, RSplit: s.rs, Soft: s.soft,
		})
		if err != nil {
			return err
		}
		s.tree = tr
	} else {
		s.tree.Rebuild()
	}
	if s.workers > 0 {
		s.tree.SetWorkers(s.workers)
	}
	if err := s.tree.AccelAll(s.accShort); err != nil {
		return err
	}
	s.Tim.Tree += time.Since(t0)
	s.Tim.TreeEvals++
	return nil
}

// downsampleAccel block-averages the PM-mesh acceleration onto the Vlasov
// spatial grid.
func (s *Simulation) downsampleAccel(meshAcc [3][]float64) {
	g := s.Grid
	r := s.pmMesh[0] / g.NX
	inv := 1 / float64(r*r*r)
	npmY, npmZ := s.pmMesh[1], s.pmMesh[2]
	for d := 0; d < 3; d++ {
		dst := s.accCell[d]
		src := meshAcc[d]
		for ix := 0; ix < g.NX; ix++ {
			for iy := 0; iy < g.NY; iy++ {
				for iz := 0; iz < g.NZ; iz++ {
					sum := 0.0
					for a := 0; a < r; a++ {
						for b := 0; b < r; b++ {
							base := ((ix*r+a)*npmY + iy*r + b) * npmZ
							for c := 0; c < r; c++ {
								sum += src[base+iz*r+c]
							}
						}
					}
					dst[(ix*g.NY+iy)*g.NZ+iz] = sum * inv
				}
			}
		}
	}
}

// SuggestDT picks the global step in ln a: the Vlasov CFL targets and a
// particle displacement cap of one PM cell, each a cosmic-time interval dt
// taken to H(a)·dt, and the expansion cap maxDLnA. Forces are computed
// lazily for the first call; if that fails the expansion cap alone is
// returned and the underlying error surfaces from the next Step.
func (s *Simulation) SuggestDT() float64 {
	if err := s.ensureForces(); err != nil {
		return maxDLnA
	}
	a := s.A
	dt := math.Inf(1)
	if s.VSol != nil {
		if d := s.VSol.SuggestDT(a, s.accCell, cflX, cflU); d < dt {
			dt = d
		}
	}
	// Particle CFL: max |u|·dt/a² ≤ PM cell. The thermal neutrino particles
	// are the hot component and usually set this limit in baseline mode.
	umax := 0.0
	for d := 0; d < 3; d++ {
		for _, v := range s.Part.Vel[d] {
			if av := math.Abs(v); av > umax {
				umax = av
			}
		}
		if s.NuPart != nil {
			for _, v := range s.NuPart.Vel[d] {
				if av := math.Abs(v); av > umax {
					umax = av
				}
			}
		}
	}
	if umax > 0 {
		cell := s.Cfg.Box / float64(s.pmMesh[0])
		if d := cell * a * a / umax; d < dt {
			dt = d
		}
	}
	return math.Min(s.Cfg.Par.Hubble(a)*dt, maxDLnA)
}

// Step advances the whole coupled system by dlna in ln a, from a to
// a₁ = a·e^dlna: one kick of the half the previous step left owed plus the
// cosmic time from a to a·e^{dlna/2}, the drifts by ∫dt/a² from a to a₁, and
// the step's one force evaluation, at the new positions. The closing half
// kick, the cosmic time from a·e^{dlna/2} to a₁, is left owed to the next
// Step or to Synchronize (see the package comment), and the forces stay
// valid, so a SuggestDT that follows costs nothing.
func (s *Simulation) Step(dlna float64) error {
	t0 := time.Now()
	if err := s.ensureForces(); err != nil {
		return err
	}
	kick1, kick2, drift := s.Cfg.Par.StepFactors(s.A, dlna)
	if err := s.kickAll(s.owed + kick1); err != nil {
		return err
	}
	s.owed = 0
	// Drift(dt, a) moves by u·dt/a²: at a = 1 the factor is ∫dt/a² itself.
	if s.VSol != nil {
		tv := time.Now()
		if err := s.VSol.Drift(drift, 1); err != nil {
			return err
		}
		d := time.Since(tv)
		s.Tim.Vlasov += d
		s.Tim.Drift += d
		s.Tim.DriftSweeps += 3
	}
	s.Part.Drift(drift, 1)
	if s.NuPart != nil {
		s.NuPart.Drift(drift, 1)
	}
	s.pmValid, s.treeValid = false, false
	s.Time += kick1 + kick2
	// a·e^dlna, in the form in which ClampDT's step lands on its target.
	s.A += s.A * math.Expm1(dlna)
	if err := s.ensureForces(); err != nil {
		return err
	}
	s.owed = kick2
	s.Tim.Steps++
	s.Tim.Total += time.Since(t0)
	return nil
}

// Synchronize applies the half kick the last Step left owed, bringing
// velocities and f to the time of the clock (runner.Synchronizer). It is
// idempotent, and free on a fresh, restored or already synchronised
// simulation. A kick is owed only by a completed Step, whose closing force
// evaluation nothing has invalidated since.
func (s *Simulation) Synchronize() error {
	if s.owed == 0 {
		return nil
	}
	t0 := time.Now()
	if err := s.kickAll(s.owed); err != nil {
		return err
	}
	s.owed = 0
	if s.Grid != nil {
		// The kick re-rounded the float32 f, so the ν density is not bit for
		// bit the one the PM half was solved from. A run restored from this
		// state can only solve from the rounded f; marking the PM half stale
		// makes whatever reads forces next — SuggestDT or the next opening
		// kick — do the same in the live run. The tree half, which sees only
		// particles, carries over.
		s.pmValid = false
	}
	s.Tim.Total += time.Since(t0)
	return nil
}

// kickAll kicks every component by the interval h with the current forces.
func (s *Simulation) kickAll(h float64) error {
	if s.VSol != nil {
		tv := time.Now()
		if err := s.VSol.Kick(h, s.accCell); err != nil {
			return err
		}
		d := time.Since(tv)
		s.Tim.Vlasov += d
		s.Tim.Kick += d
		s.Tim.KickSweeps += 3
	}
	if s.NuPart != nil {
		if err := s.NuPart.Kick(h, s.accNuPart); err != nil {
			return err
		}
	}
	return s.Part.Kick(h, s.accPart)
}

// Clock returns the run coordinate driven by the runner: the scale factor.
func (s *Simulation) Clock() float64 { return s.A }

// ClampDT shrinks the step dlna so the scale factor does not pass the
// target until (the runner's DTClamper capability: the simulation steps in
// ln a but clocks in a). A clamped step lands on until exactly: Step grows a
// by a·expm1(dlna), and at dlna = log1p((until−a)/a) that sum rounds to
// until for any step shorter than ≈ 0.2 in ln a, where the plain
// a·exp(ln(until/a)) falls an ulp short about one time in seven.
func (s *Simulation) ClampDT(dlna, until float64) float64 {
	return math.Min(dlna, math.Log1p((until-s.A)/s.A))
}

// Diagnostics reports the uniform per-step summary: scale factor, cosmic
// time, total mass, plus redshift, per-component masses and the Vlasov
// boundary loss under Extra — all of them unchanged by a kick up to what it
// moves from ν mass into boundary loss, so they read the same whether or not
// a half kick is owed. The result is a value snapshot with a fresh Extra map
// — the runner's contract for off-thread (async observer) delivery.
func (s *Simulation) Diagnostics() runner.Diagnostics {
	nu, cdm := s.TotalMass()
	extra := map[string]float64{
		"z":        s.Redshift(),
		"nu_mass":  nu,
		"cdm_mass": cdm,
	}
	if s.VSol != nil {
		extra["boundary_loss"] = s.VSol.BoundaryLoss
	}
	return runner.Diagnostics{Clock: s.A, Time: s.Time, Mass: nu + cdm, Extra: extra}
}

// Checkpoint synchronises the simulation and writes a restorable snapshot
// through snapio (the runner's Checkpointer capability). Restore rebuilds a
// Simulation from it. Every mode can snapshot: the ν-particle baseline rides
// the second particle section of snapio format v2.
func (s *Simulation) Checkpoint(w io.Writer) (int64, error) {
	if err := s.Synchronize(); err != nil {
		return 0, err
	}
	return snapio.Write(w, &snapio.Snapshot{A: s.A, Time: s.Time, Part: s.Part, Grid: s.Grid, NuPart: s.NuPart})
}

// TotalMass returns (ν mass, CDM mass) for conservation checks.
func (s *Simulation) TotalMass() (nu, cdm float64) {
	if s.Grid != nil {
		nu = s.Grid.TotalMass()
	}
	if s.NuPart != nil {
		nu = float64(s.NuPart.N) * s.NuPart.Mass
	}
	return nu, float64(s.Part.N) * s.Part.Mass
}

// Redshift returns the current redshift z = 1/a − 1.
func (s *Simulation) Redshift() float64 { return 1/s.A - 1 }

// Cosmo exposes the parameter set.
func (s *Simulation) Cosmo() cosmo.Params { return s.Cfg.Par }

// Restore rebuilds a Simulation from a snapshot: the particle sets and
// (when present) phase-space grid are installed directly into a simulation
// skeleton built without generating initial conditions, so resume startup
// is O(state size) rather than O(IC generation). The configuration must
// describe the same discretisation the snapshot was taken with.
func Restore(cfg Config, snap *snapio.Snapshot) (*Simulation, error) {
	if snap == nil || snap.Part == nil {
		return nil, fmt.Errorf("hybrid: restore needs a snapshot with particles")
	}
	cfgUse := cfg
	if snap.Grid == nil && !cfg.NuParticles {
		// A particle-only snapshot restores as a pure N-body run.
		cfgUse.NoNeutrino = true
	}
	s, err := build(cfgUse, snap.A, false)
	if err != nil {
		return nil, err
	}
	if cfgUse.NuParticles && snap.NuPart == nil {
		return nil, fmt.Errorf("hybrid: ν-particle config but the snapshot has no neutrino particles " +
			"(regenerating them would mix evolved CDM with fresh ICs)")
	}
	if !cfgUse.NuParticles && snap.NuPart != nil {
		return nil, fmt.Errorf("hybrid: snapshot holds ν particles but the config is not in NuParticles mode")
	}
	if want := s.Cfg.NPartSide * s.Cfg.NPartSide * s.Cfg.NPartSide; snap.Part.N != want {
		return nil, fmt.Errorf("hybrid: snapshot has %d particles, config wants %d", snap.Part.N, want)
	}
	s.installParticles(snap.Part)
	if snap.Grid != nil {
		if s.Cfg.NoNeutrino || s.Cfg.NuParticles {
			return nil, fmt.Errorf("hybrid: config has no Vlasov component for the snapshot grid")
		}
		g := snap.Grid
		if g.NX != s.Cfg.NGrid || g.NY != s.Cfg.NGrid || g.NZ != s.Cfg.NGrid ||
			g.NU != [3]int{s.Cfg.NU, s.Cfg.NU, s.Cfg.NU} {
			return nil, fmt.Errorf("hybrid: snapshot grid %d×%d×%d×%v != config %d³×%d³",
				g.NX, g.NY, g.NZ, g.NU, s.Cfg.NGrid, s.Cfg.NU)
		}
		if err := s.installGrid(g); err != nil {
			return nil, err
		}
	}
	if snap.NuPart != nil {
		if want := s.Cfg.NNuSide * s.Cfg.NNuSide * s.Cfg.NNuSide; snap.NuPart.N != want {
			return nil, fmt.Errorf("hybrid: snapshot has %d ν particles, config wants %d", snap.NuPart.N, want)
		}
		s.installNuParticles(snap.NuPart)
	}
	s.A = snap.A
	if snap.Time > 0 {
		s.Time = snap.Time
	} else {
		s.Time = s.Cfg.Par.CosmicTime(snap.A)
	}
	return s, nil
}
