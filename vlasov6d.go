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
//   - the background cosmology (CosmologyParams) behind the initial
//     conditions;
//   - the 1D1V electrostatic plasma solver (PlasmaSolver) for validation
//     problems, on the same advection schemes;
//   - the measured 3D power spectrum behind the science figures.
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

	"vlasov6d/internal/analysis"
	"vlasov6d/internal/cosmo"
	"vlasov6d/internal/hybrid"
	"vlasov6d/internal/plasma"
	"vlasov6d/internal/snapio"
)

// CosmologyParams is the cosmological parameter set (h, Ωm, ΩΛ, ΣMν, ns,
// σ8).
type CosmologyParams = cosmo.Params

// Planck2015 returns the paper's fiducial cosmology with the given total
// neutrino mass ΣMν in eV.
func Planck2015(sumMNuEV float64) CosmologyParams { return cosmo.Planck2015(sumMNuEV) }

// Config assembles a hybrid simulation (see internal/hybrid for the field
// documentation; the zero value of optional fields selects the paper's
// ratios).
type Config = hybrid.Config

// Simulation is a live hybrid Vlasov/N-body run.
type Simulation = hybrid.Simulation

// SimOption adjusts a Config before construction; the other settings are
// Config fields, set directly, and the CFL targets, the expansion cap and
// the velocity-grid extent are constants of internal/hybrid. Anything left
// zero is filled by Config.ApplyDefaults with the paper's value.
type SimOption func(*Config)

// WithScheme selects the Vlasov position-drift scheme by name (default
// "slmpp5"; also "mp5", "upwind1", "laxwendroff2"). The velocity kick is
// always SL-MPP5.
func WithScheme(name string) SimOption { return func(c *Config) { c.Scheme = name } }

// WithPMFactor sets the PM-mesh refinement over the Vlasov grid per side
// (the paper's value is 3).
func WithPMFactor(f int) SimOption { return func(c *Config) { c.PMFactor = f } }

// WithoutNeutrinos disables the Vlasov component entirely — the pure N-body
// control run.
func WithoutNeutrinos() SimOption { return func(c *Config) { c.NoNeutrino = true } }

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

// PlasmaSolver is the 1D1V electrostatic Vlasov–Poisson solver built on the
// same advection machinery (Landau damping, two-stream instability).
type PlasmaSolver = plasma.Solver

// NewPlasmaSolver allocates a 1D1V solver on x ∈ [0, L), v ∈ [−vmax, vmax).
func NewPlasmaSolver(nx, nv int, boxL, vmax float64) (*PlasmaSolver, error) {
	return plasma.New(nx, nv, boxL, vmax)
}

// NewPlasmaSolverWithScheme is NewPlasmaSolver with the periodic x-drift
// advection scheme selected by name (as for WithScheme) — the knob
// scheme-comparison sweeps turn.
func NewPlasmaSolverWithScheme(nx, nv int, boxL, vmax float64, scheme string) (*PlasmaSolver, error) {
	return plasma.NewWithScheme(nx, nv, boxL, vmax, scheme)
}

// RestorePlasmaSolver rebuilds a 1D1V solver from a checkpoint written by
// its Checkpoint method (for example by Run under WithCheckpoint, or by a
// scheduler under WithJobCheckpoints), verifying the checksum; r is read as
// by ReadSnapshot. The scheme, grid and elapsed time come from the file.
func RestorePlasmaSolver(r io.Reader) (*PlasmaSolver, error) {
	return plasma.Restore(r)
}

// LandauDampingRate returns the kinetic-theory Landau damping rate γ for
// wavenumber k and thermal speed vth (normalised units).
func LandauDampingRate(k, vth float64) float64 { return plasma.LandauDampingRate(k, vth) }

// MeasurePowerSpectrum bins the 3D power spectrum of a density mesh
// (n³ row-major cells over a boxL-sided cube) into nbins logarithmic
// shells, returning bin-centre k, P(k) and per-shell mode counts.
func MeasurePowerSpectrum(rho []float64, n int, boxL float64, nbins int) (ks, pk, counts []float64, err error) {
	return analysis.PowerSpectrum(rho, n, boxL, nbins)
}

// Snapshot bundles simulation state for checksummed binary I/O.
type Snapshot = snapio.Snapshot

// WriteSnapshot and ReadSnapshot serialise state; ReadSnapshot takes an
// *os.File, *bytes.Buffer or *bytes.Reader (see snapio.NewDecoder).
var (
	WriteSnapshot = snapio.Write
	ReadSnapshot  = snapio.Read
)
