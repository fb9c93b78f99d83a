// Package vlasov6d is a pure-Go reproduction of "A 400 Trillion-Grid Vlasov
// Simulation on Fugaku Supercomputer: Large-Scale Distribution of Cosmic
// Relic Neutrinos in a Six-dimensional Phase Space" (Yoshikawa, Tanaka &
// Yoshida, SC '21).
//
// It provides, as a single public facade over the internal packages:
//
//   - the unified Runner API (Solver, Run, RunOption): one driver loop with
//     context cancellation, wall-clock budgets, per-step observers and a
//     checkpoint cadence, shared by every solver in the package;
//   - the hybrid Vlasov/N-body cosmological simulation (Config, Simulation):
//     massive neutrinos on a six-dimensional phase-space grid advanced with
//     the single-stage fifth-order SL-MPP5 scheme, coupled through one
//     gravitational potential to TreePM cold dark matter — plus its pure
//     N-body and ν-particle control modes;
//   - the background cosmology and linear theory (CosmologyParams,
//     LinearPower) used for initial conditions;
//   - the 1D advection schemes themselves (NewScheme) and the 1D1V
//     electrostatic plasma solver (PlasmaSolver) for validation problems;
//   - the calibrated Fugaku machine model (MachineModel, RunTable) that
//     replays the paper's Tables 2–4 and Figures at full 147,456-node scale;
//   - analysis utilities (power spectra, projections, moment maps) behind
//     the science figures.
//
// Quick start — build a simulation with explicit options, then drive it to
// z = 1 under the unified runner, checkpointing every 50 steps:
//
//	cfg := vlasov6d.Config{
//	    Par:       vlasov6d.Planck2015(0.4), // ΣMν = 0.4 eV
//	    Box:       200,                      // h⁻¹Mpc
//	    NGrid:     12, NU: 10, NPartSide: 12,
//	    Seed:      1,
//	}
//	sim, err := vlasov6d.NewSimulation(cfg, 1.0/11, // z = 10
//	    vlasov6d.WithScheme("slmpp5"), vlasov6d.WithPMFactor(2))
//	...
//	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
//	defer stop()
//	report, err := vlasov6d.Run(ctx, sim, 0.5, // to z = 1
//	    vlasov6d.WithWallClock(2*time.Hour),
//	    vlasov6d.WithCheckpoint("ckpts", 50),
//	    vlasov6d.WithObserver(func(step int, s vlasov6d.Solver) error {
//	        log.Printf("a = %.4f", s.Diagnostics().Clock)
//	        return nil
//	    }))
//
// The same Run call drives a PlasmaSolver (Landau damping, two-stream) or a
// pure N-body control run (WithoutNeutrinos); a checkpoint written by Run is
// resumed with ReadSnapshot + RestoreSimulation.
package vlasov6d

import (
	"fmt"
	"io"

	"vlasov6d/internal/advect"
	"vlasov6d/internal/analysis"
	"vlasov6d/internal/cosmo"
	"vlasov6d/internal/hybrid"
	"vlasov6d/internal/machine"
	"vlasov6d/internal/nbody"
	"vlasov6d/internal/phase"
	"vlasov6d/internal/plasma"
	"vlasov6d/internal/snapio"
	"vlasov6d/internal/vlasov"
)

// CosmologyParams is the cosmological parameter set (h, Ωm, ΩΛ, ΣMν, ns,
// σ8).
type CosmologyParams = cosmo.Params

// Planck2015 returns the paper's fiducial cosmology with the given total
// neutrino mass ΣMν in eV.
func Planck2015(sumMNuEV float64) CosmologyParams { return cosmo.Planck2015(sumMNuEV) }

// LinearPower is the σ8-normalised linear matter power spectrum with
// massive-neutrino free-streaming suppression.
type LinearPower = cosmo.PowerSpectrum

// NewLinearPower builds the linear power spectrum for a parameter set.
func NewLinearPower(p CosmologyParams) *LinearPower { return cosmo.NewPowerSpectrum(p) }

// Config assembles a hybrid simulation (see internal/hybrid for the field
// documentation; the zero value of optional fields selects the paper's
// ratios).
type Config = hybrid.Config

// Simulation is a live hybrid Vlasov/N-body run.
type Simulation = hybrid.Simulation

// SimOption adjusts a Config before construction. Options make the paper's
// defaulting explicit: every knob a zero Config field would silently select
// has a named, documented option, and anything left zero is filled by
// Config.ApplyDefaults with the paper's value.
type SimOption func(*Config)

// WithScheme selects the Vlasov position-drift scheme by name (default
// "slmpp5"; see SchemeNames). The velocity kick is always SL-MPP5.
func WithScheme(name string) SimOption { return func(c *Config) { c.Scheme = name } }

// WithPMFactor sets the PM-mesh refinement over the Vlasov grid per side
// (the paper's value is 3).
func WithPMFactor(f int) SimOption { return func(c *Config) { c.PMFactor = f } }

// WithPMMesh overrides the PM mesh side directly; it must be an integer
// multiple of NGrid when the Vlasov grid is active.
func WithPMMesh(n int) SimOption { return func(c *Config) { c.PMMesh = n } }

// WithUMaxFactor sets the velocity-space extent in Fermi-Dirac thermal
// scales (the paper's value is 12).
func WithUMaxFactor(f float64) SimOption { return func(c *Config) { c.UMaxFactor = f } }

// WithTreeOpening sets the tree opening angle θ (default 0.5).
func WithTreeOpening(theta float64) SimOption { return func(c *Config) { c.Theta = theta } }

// WithCFL sets the Vlasov CFL targets in position and velocity space
// (default 0.4 each).
func WithCFL(x, u float64) SimOption {
	return func(c *Config) { c.CFLX, c.CFLU = x, u }
}

// WithMaxDLnA caps the expansion per step (default 0.02).
func WithMaxDLnA(d float64) SimOption { return func(c *Config) { c.MaxDLnA = d } }

// WithoutTree disables the short-range force (PM-only N-body gravity).
func WithoutTree() SimOption { return func(c *Config) { c.NoTree = true } }

// WithoutNeutrinos disables the Vlasov component entirely — the pure N-body
// control run.
func WithoutNeutrinos() SimOption { return func(c *Config) { c.NoNeutrino = true } }

// WithWorkers pins the simulation's intra-step worker count from
// construction onwards (0 = GOMAXPROCS). Unlike a post-construction
// SetWorkers call it also bounds the expensive initial-condition pass (the
// 6D grid fill), which is what a scheduler core budget needs to keep
// construction from bursting past a job's share.
func WithWorkers(n int) SimOption { return func(c *Config) { c.Workers = n } }

// WithNuParticleBaseline switches the neutrino component to TianNu-style
// particles (the §5.4 baseline) with nnuSide³ particles; nnuSide = 0
// selects the paper's 2·NPartSide.
func WithNuParticleBaseline(nnuSide int) SimOption {
	return func(c *Config) {
		c.NuParticles = true
		c.NNuSide = nnuSide
	}
}

// NewSimulation builds a simulation with initial conditions at scale factor
// aInit (z = 1/aInit − 1), after applying the options to cfg. The config is
// validated up front: invalid shapes or domains fail here with a
// descriptive error, never as a panic inside the first Step.
func NewSimulation(cfg Config, aInit float64, opts ...SimOption) (*Simulation, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	return hybrid.New(cfg, aInit)
}

// RestoreSimulation rebuilds a simulation from a snapshot (for example a
// checkpoint written by Run under WithCheckpoint). The config must describe
// the same discretisation the snapshot was taken with. Construction
// allocates without regenerating initial conditions, so resume startup
// costs O(state size), not O(IC generation).
func RestoreSimulation(cfg Config, snap *Snapshot, opts ...SimOption) (*Simulation, error) {
	if snap == nil {
		return nil, fmt.Errorf("vlasov6d: nil snapshot")
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return hybrid.Restore(cfg, snap)
}

// PhaseGrid is the six-dimensional phase-space distribution grid.
type PhaseGrid = phase.Grid

// Moments are the velocity moments (density, mean velocity, dispersion) of
// a phase-space grid.
type Moments = phase.Moments

// Particles is the structure-of-arrays N-body particle store.
type Particles = nbody.Particles

// Scheme is a one-dimensional advection scheme (SL-MPP5, MP5+RK3, …).
type Scheme = advect.Scheme

// NewScheme constructs an advection scheme by name: "slmpp5" (the paper's
// single-stage fifth-order MP/PP scheme), "mp5", "upwind1", "laxwendroff2".
func NewScheme(name string) (Scheme, error) { return advect.New(name) }

// SchemeNames lists the available advection schemes.
func SchemeNames() []string { return advect.Names() }

// PlasmaSolver is the 1D1V electrostatic Vlasov–Poisson solver built on the
// same advection machinery (Landau damping, two-stream instability).
type PlasmaSolver = plasma.Solver

// NewPlasmaSolver allocates a 1D1V solver on x ∈ [0, L), v ∈ [−vmax, vmax).
func NewPlasmaSolver(nx, nv int, boxL, vmax float64) (*PlasmaSolver, error) {
	return plasma.New(nx, nv, boxL, vmax)
}

// NewPlasmaSolverWithScheme is NewPlasmaSolver with the periodic x-drift
// advection scheme selected by name (see SchemeNames) — the knob
// scheme-comparison sweeps turn.
func NewPlasmaSolverWithScheme(nx, nv int, boxL, vmax float64, scheme string) (*PlasmaSolver, error) {
	return plasma.NewWithScheme(nx, nv, boxL, vmax, scheme)
}

// RestorePlasmaSolver rebuilds a 1D1V solver from a checkpoint written by
// its Checkpoint method (for example by Run under WithCheckpoint, or by a
// scheduler under WithJobCheckpoints), verifying the checksum. The scheme,
// grid and elapsed time are restored from the file.
func RestorePlasmaSolver(r io.Reader) (*PlasmaSolver, error) {
	return plasma.Restore(r)
}

// LandauDampingRate returns the kinetic-theory Landau damping rate γ for
// wavenumber k and thermal speed vth (normalised units).
func LandauDampingRate(k, vth float64) float64 { return plasma.LandauDampingRate(k, vth) }

// MachineModel is the calibrated A64FX/Tofu-D performance model used to
// replay the paper's scaling study at full Fugaku scale.
type MachineModel = machine.Model

// MachineRun is one row of the paper's Table 2 run matrix.
type MachineRun = machine.Run

// NewMachineModel returns the model with paper-calibrated constants.
func NewMachineModel() (*MachineModel, error) { return machine.New(machine.Defaults()) }

// RunTable is the paper's Table 2 run matrix (S1 … U1024).
func RunTable() []MachineRun { return machine.Table2 }

// EffectiveResolution evaluates the paper's eq. (9): the effective spatial
// resolution of an N-body neutrino run with nuSide³ particles at
// signal-to-noise snr, for box size boxL.
func EffectiveResolution(boxL float64, nuSide int, snr float64) float64 {
	return machine.EffectiveResolution(boxL, nuSide, snr)
}

// MeasurePowerSpectrum bins the 3D power spectrum of a density mesh
// (n³ row-major cells over a boxL-sided cube) into nbins logarithmic
// shells, returning bin-centre k, P(k) and per-shell mode counts.
func MeasurePowerSpectrum(rho []float64, n int, boxL float64, nbins int) (ks, pk, counts []float64, err error) {
	return analysis.PowerSpectrum(rho, n, boxL, nbins)
}

// Snapshot bundles simulation state for checksummed binary I/O.
type Snapshot = snapio.Snapshot

// WriteSnapshot and ReadSnapshot serialise state; see internal/snapio.
var (
	WriteSnapshot = snapio.Write
	ReadSnapshot  = snapio.Read
)

// CrossSpectrum bins the cross-correlation coefficient r(k) of two density
// meshes — the quantitative version of "the neutrinos trace the CDM on
// large scales".
func CrossSpectrum(rhoA, rhoB []float64, n int, boxL float64, nbins int) (ks, r []float64, err error) {
	return analysis.CrossSpectrum(rhoA, rhoB, n, boxL, nbins)
}

// TransferKind selects the linear transfer function for NewLinearPowerKind.
type TransferKind = cosmo.TransferKind

// The available transfer functions.
const (
	TransferBBKS = cosmo.TransferBBKS
	TransferEH   = cosmo.TransferEH
)

// NewLinearPowerKind builds the spectrum with an explicit transfer choice.
func NewLinearPowerKind(p CosmologyParams, kind TransferKind) *LinearPower {
	return cosmo.NewPowerSpectrumKind(p, kind)
}

// VlasovDiagnostics bundles the solver's global invariants (mass, L2 norm,
// Casimir entropy) used to monitor limiter dissipation.
type VlasovDiagnostics = vlasov.Diagnostics

// ComputeVlasovDiagnostics evaluates the invariants over a phase grid.
func ComputeVlasovDiagnostics(g *PhaseGrid) VlasovDiagnostics {
	return vlasov.ComputeDiagnostics(g)
}
