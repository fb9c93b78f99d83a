package catalog

// The built-in scenarios: every workload shape the repository's commands
// run, declared once with typed parameters so the service layer can
// instantiate them from JSON. The configurations default to small,
// laptop-sized versions — a control plane accepting remote work should not
// default to a Fugaku-sized campaign.

import (
	"fmt"
	"math"
	"os"

	"vlasov6d/internal/advect"
	"vlasov6d/internal/cosmo"
	"vlasov6d/internal/hybrid"
	"vlasov6d/internal/plasma"
	"vlasov6d/internal/runner"
	"vlasov6d/internal/snapio"
)

// Default returns a catalog with every built-in scenario registered. It
// panics on a registration error: the built-ins are compile-time data and
// a bad declaration is a programmer error, not a runtime condition.
func Default() *Catalog {
	c := New()
	for _, sc := range builtins() {
		if err := c.Register(sc); err != nil {
			panic(err)
		}
	}
	return c
}

// plasmaParams are the parameters shared by the 1D1V plasma scenarios: the
// scheme × resolution axes the sweep campaigns scan, plus the physical
// perturbation knobs.
func plasmaParams(nx, nv int, k, alpha float64) []Param {
	return []Param{
		{Name: "scheme", Kind: String, Default: "slmpp5", Enum: advect.Names(),
			Help: "periodic x-drift advection scheme"},
		{Name: "nx", Kind: Int, Default: nx, Min: 6, Max: 4096, HasRange: true,
			Help: "spatial cells"},
		{Name: "nv", Kind: Int, Default: nv, Min: 6, Max: 8192, HasRange: true,
			Help: "velocity cells"},
		{Name: "k", Kind: Float, Default: k, Min: 1e-3, Max: 10, HasRange: true,
			Help: "perturbation wavenumber (Debye-length units); box L = 2π/k"},
		{Name: "alpha", Kind: Float, Default: alpha, Min: 0, Max: 1, HasRange: true,
			Help: "perturbation amplitude"},
		{Name: "vmax", Kind: Float, Default: 8.0, Min: 1, Max: 64, HasRange: true,
			Help: "velocity-space half-extent"},
	}
}

// buildPlasma allocates a 1D1V solver from the shared parameters, pinned to
// the job's construction-time core share.
func buildPlasma(v Values, workers int) (*plasma.Solver, error) {
	s, err := plasma.NewWithScheme(v.Int("nx"), v.Int("nv"),
		2*math.Pi/v.Float("k"), v.Float("vmax"), v.Str("scheme"))
	if err != nil {
		return nil, err
	}
	if workers > 0 {
		s.SetWorkers(workers)
	}
	return s, nil
}

// restorePlasma rebuilds a 1D1V solver from a checkpoint and rejects a
// snapshot whose discretisation does not match the spec — the job name
// keys the checkpoint directory, but a stale directory must not silently
// resume a different problem.
func restorePlasma(v Values, path string, workers int) (runner.Solver, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := plasma.Restore(f)
	if err != nil {
		return nil, err
	}
	if s.NX != v.Int("nx") || s.NV != v.Int("nv") || s.Scheme() != v.Str("scheme") {
		return nil, fmt.Errorf("catalog: snapshot %s is %s@%dx%d, spec wants %s@%dx%d",
			path, s.Scheme(), s.NX, s.NV, v.Str("scheme"), v.Int("nx"), v.Int("nv"))
	}
	// The domain geometry must match too: same grid under a different k
	// (box length) or vmax is a physically different problem, and resuming
	// it under this spec's label would be silent corruption. The spec's L
	// is computed by the exact expression Build used, so equality is exact
	// for a matching spec.
	if wantL := 2 * math.Pi / v.Float("k"); s.L != wantL || s.VMax != v.Float("vmax") {
		return nil, fmt.Errorf("catalog: snapshot %s has domain L=%g vmax=%g, spec wants L=%g vmax=%g",
			path, s.L, s.VMax, wantL, v.Float("vmax"))
	}
	if workers > 0 {
		s.SetWorkers(workers)
	}
	return s, nil
}

// hybridParams are the parameters shared by the cosmological scenarios.
// The extra axes (grid shapes) are added per scenario.
func hybridParams() []Param {
	return []Param{
		{Name: "box", Kind: Float, Default: 200.0, Min: 1, Max: 10000, HasRange: true,
			Help: "comoving box size (h⁻¹Mpc)"},
		{Name: "npartside", Kind: Int, Default: 8, Min: 2, Max: 256, HasRange: true,
			Help: "CDM particles per side"},
		{Name: "mnu", Kind: Float, Default: 0.4, Min: 0, Max: 4, HasRange: true,
			Help: "total neutrino mass ΣMν (eV)"},
		{Name: "seed", Kind: Int, Default: 1, Help: "initial-condition random seed"},
		{Name: "pmfactor", Kind: Int, Default: 2, Min: 1, Max: 8, HasRange: true,
			Help: "PM-mesh refinement over the Vlasov grid"},
		{Name: "ainit", Kind: Float, Default: 1.0 / 11, Min: 1e-3, Max: 1, HasRange: true,
			Help: "initial scale factor (z = 1/a − 1)"},
	}
}

// hybridConfig assembles the shared cosmological Config from values.
func hybridConfig(v Values, workers int) hybrid.Config {
	return hybrid.Config{
		Par:       cosmo.Planck2015(v.Float("mnu")),
		Box:       v.Float("box"),
		NPartSide: v.Int("npartside"),
		PMFactor:  v.Int("pmfactor"),
		Seed:      int64(v.Int("seed")),
		Workers:   workers,
	}
}

// restoreHybrid rebuilds a hybrid simulation from a snapio checkpoint with
// the config the values describe; shape mismatches surface as hybrid
// install errors.
func restoreHybrid(cfg hybrid.Config, path string) (runner.Solver, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := snapio.Read(f)
	if err != nil {
		return nil, err
	}
	return hybrid.Restore(cfg, snap)
}

func builtins() []Scenario {
	landau := Scenario{
		Name:        "landau",
		Description: "1D1V Landau damping: Langmuir wave decay at the kinetic-theory rate — the scheme × resolution validation grid",
		Params: append(plasmaParams(32, 64, 0.5, 0.01),
			Param{Name: "vth", Kind: Float, Default: 1.0, Min: 1e-3, Max: 16, HasRange: true,
				Help: "thermal speed"}),
		DefaultUntil: 25,
		Build: func(v Values, workers int) (runner.Solver, error) {
			s, err := buildPlasma(v, workers)
			if err != nil {
				return nil, err
			}
			s.LandauInit(v.Float("alpha"), v.Float("k"), v.Float("vth"))
			return s, nil
		},
		Restore: restorePlasma,
	}

	twostream := Scenario{
		Name:        "twostream",
		Description: "1D1V two-stream instability: exponential growth and nonlinear trapping of counter-streaming beams",
		Params: append(plasmaParams(64, 128, 0.2, 1e-3),
			Param{Name: "v0", Kind: Float, Default: 2.4, Min: 0, Max: 32, HasRange: true,
				Help: "beam drift speed"},
			Param{Name: "vth", Kind: Float, Default: 0.5, Min: 1e-3, Max: 16, HasRange: true,
				Help: "beam thermal spread"}),
		DefaultUntil: 40,
		Build: func(v Values, workers int) (runner.Solver, error) {
			s, err := buildPlasma(v, workers)
			if err != nil {
				return nil, err
			}
			s.TwoStreamInit(v.Float("alpha"), v.Float("k"), v.Float("v0"), v.Float("vth"))
			return s, nil
		},
		Restore: restorePlasma,
	}

	gridParams := []Param{
		{Name: "ngrid", Kind: Int, Default: 8, Min: 6, Max: 64, HasRange: true,
			Help: "Vlasov spatial cells per side"},
		{Name: "nu", Kind: Int, Default: 8, Min: 6, Max: 64, HasRange: true,
			Help: "velocity cells per side"},
		{Name: "scheme", Kind: String, Default: "slmpp5", Enum: advect.Names(),
			Help: "Vlasov advection scheme"},
	}

	hybridSc := Scenario{
		Name:         "hybrid",
		Description:  "hybrid Vlasov/N-body cosmology: neutrinos on the 6D phase-space grid coupled to TreePM CDM (small config)",
		Params:       append(hybridParams(), gridParams...),
		DefaultUntil: 0.2,
		Build: func(v Values, workers int) (runner.Solver, error) {
			cfg := hybridConfig(v, workers)
			cfg.NGrid = v.Int("ngrid")
			cfg.NU = v.Int("nu")
			cfg.Scheme = v.Str("scheme")
			return hybrid.New(cfg, v.Float("ainit"))
		},
		Restore: func(v Values, path string, workers int) (runner.Solver, error) {
			cfg := hybridConfig(v, workers)
			cfg.NGrid = v.Int("ngrid")
			cfg.NU = v.Int("nu")
			cfg.Scheme = v.Str("scheme")
			return restoreHybrid(cfg, path)
		},
	}

	nbody := Scenario{
		Name:         "nbody",
		Description:  "pure N-body control run: TreePM CDM only, the neutrino-free baseline",
		Params:       hybridParams(),
		DefaultUntil: 0.2,
		Build: func(v Values, workers int) (runner.Solver, error) {
			cfg := hybridConfig(v, workers)
			cfg.NoNeutrino = true
			return hybrid.New(cfg, v.Float("ainit"))
		},
		Restore: func(v Values, path string, workers int) (runner.Solver, error) {
			cfg := hybridConfig(v, workers)
			cfg.NoNeutrino = true
			return restoreHybrid(cfg, path)
		},
	}

	shotnoise := Scenario{
		Name:        "shotnoise",
		Description: "ν-particle baseline (§5.4): TianNu-style particle neutrinos whose moments carry the shot noise the Vlasov grid avoids",
		Params: append(hybridParams(),
			// NGrid/NU still size the PM mesh and the moment grids the
			// baseline is compared on, even though the neutrinos are
			// particles here.
			Param{Name: "ngrid", Kind: Int, Default: 8, Min: 6, Max: 64, HasRange: true,
				Help: "spatial cells per side (PM-mesh base)"},
			Param{Name: "nu", Kind: Int, Default: 8, Min: 6, Max: 64, HasRange: true,
				Help: "velocity cells per side"},
			Param{Name: "nnuside", Kind: Int, Default: 0, Min: 0, Max: 512, HasRange: true,
				Help: "neutrino particles per side (0 = 2·npartside, the paper's ratio; otherwise ≥ 2)"}),
		DefaultUntil: 0.2,
		Check: func(v Values) error {
			// The range cannot express "0 (defaulted) or ≥ 2"; a bare 1
			// would otherwise fail only on the worker, inside hybrid's
			// config validation.
			if n := v.Int("nnuside"); n == 1 {
				return fmt.Errorf("nnuside must be 0 (selects 2·npartside) or ≥ 2, got 1")
			}
			return nil
		},
		Build: func(v Values, workers int) (runner.Solver, error) {
			cfg := hybridConfig(v, workers)
			cfg.NGrid = v.Int("ngrid")
			cfg.NU = v.Int("nu")
			cfg.NuParticles = true
			cfg.NNuSide = v.Int("nnuside")
			return hybrid.New(cfg, v.Float("ainit"))
		},
		Restore: func(v Values, path string, workers int) (runner.Solver, error) {
			cfg := hybridConfig(v, workers)
			cfg.NGrid = v.Int("ngrid")
			cfg.NU = v.Int("nu")
			cfg.NuParticles = true
			cfg.NNuSide = v.Int("nnuside")
			return restoreHybrid(cfg, path)
		},
	}

	return []Scenario{landau, twostream, hybridSc, nbody, shotnoise}
}
