package hybrid

import (
	"bytes"
	"context"
	"io"
	"math"
	"os"
	"runtime"
	"testing"

	"vlasov6d/internal/analysis"
	"vlasov6d/internal/cosmo"
	"vlasov6d/internal/nbody"
	"vlasov6d/internal/phase"
	"vlasov6d/internal/runner"
	"vlasov6d/internal/snapio"
)

// smallConfig is a laptop-scale hybrid run: 8³ Vlasov cells × 8³ velocity
// cells, 8³ particles, 16³ PM mesh.
func smallConfig() Config {
	return Config{
		Par:       cosmo.Planck2015(0.4),
		Box:       200,
		NGrid:     8,
		NU:        8,
		NPartSide: 8,
		PMFactor:  2,
		Seed:      42,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative Box", func(c *Config) { c.Box = -1 }},
		{"zero Box", func(c *Config) { c.Box = 0 }},
		{"NGrid below stencil", func(c *Config) { c.NGrid = 4 }},
		{"zero NGrid", func(c *Config) { c.NGrid = 0 }},
		{"negative NGrid", func(c *Config) { c.NGrid = -8 }},
		{"NU below stencil", func(c *Config) { c.NU = 5 }},
		{"negative NU", func(c *Config) { c.NU = -8 }},
		{"NPartSide too small", func(c *Config) { c.NPartSide = 1 }},
		{"negative PMFactor", func(c *Config) { c.PMFactor = -2 }},
		{"negative Theta", func(c *Config) { c.Theta = -0.5 }},
		{"negative PMMesh", func(c *Config) { c.PMMesh = -16 }},
		{"PMMesh not a refinement", func(c *Config) { c.PMMesh = 12 }}, // NGrid = 8
	}
	for _, tc := range bad {
		c := smallConfig()
		tc.mut(&c)
		if _, err := New(c, 0.1); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	c := smallConfig()
	if _, err := New(c, 0); err == nil {
		t.Fatal("aInit = 0 accepted")
	}
	if _, err := New(c, 2); err == nil {
		t.Fatal("aInit > 1 accepted")
	}
}

func TestApplyDefaultsFillsPaperValues(t *testing.T) {
	c := smallConfig()
	c.PMFactor = 0
	c.ApplyDefaults()
	if c.PMFactor != 3 || c.Scheme != "slmpp5" || c.Theta != 0.5 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewSetsUpComponents(t *testing.T) {
	s, err := New(smallConfig(), 0.0909)
	if err != nil {
		t.Fatal(err)
	}
	if s.Grid == nil || s.VSol == nil || s.Part == nil || s.PM == nil {
		t.Fatal("missing components")
	}
	if s.Part.N != 512 {
		t.Fatalf("particle count %d", s.Part.N)
	}
	if s.pmMesh != [3]int{16, 16, 16} {
		t.Fatalf("PM mesh %v", s.pmMesh)
	}
	if math.Abs(s.Redshift()-10) > 0.01 {
		t.Fatalf("initial redshift %v, want 10", s.Redshift())
	}
	// Mean densities: ν mass fraction should match fν = Ων/Ωm.
	nu, cdm := s.TotalMass()
	fnu := nu / (nu + cdm)
	want := s.Cfg.Par.FNu()
	if math.Abs(fnu-want)/want > 0.02 {
		t.Fatalf("ν mass fraction %v, want %v", fnu, want)
	}
}

func TestNoNeutrinoMode(t *testing.T) {
	c := smallConfig()
	c.NoNeutrino = true
	c.NPartSide = 12
	s, err := New(c, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Grid != nil || s.VSol != nil {
		t.Fatal("neutrino component created in NoNeutrino mode")
	}
	if s.pmMesh[0] != 4 { // 12/3
		t.Fatalf("PM mesh %v", s.pmMesh)
	}
	if err := s.Step(maxDLnA); err != nil {
		t.Fatal(err)
	}
}

func TestStepConservesMass(t *testing.T) {
	s, err := New(smallConfig(), 0.0909)
	if err != nil {
		t.Fatal(err)
	}
	nu0, _ := s.TotalMass()
	if err := s.ensureForces(); err != nil {
		t.Fatal(err)
	}
	dt := s.SuggestDT()
	for i := 0; i < 2; i++ {
		if err := s.Step(dt); err != nil {
			t.Fatal(err)
		}
	}
	nu1, _ := s.TotalMass()
	if rel := math.Abs(nu1+s.VSol.BoundaryLoss-nu0) / nu0; rel > 1e-4 {
		t.Fatalf("ν mass drift %v", rel)
	}
	if s.A <= 0.0909 {
		t.Fatalf("scale factor did not advance: %v", s.A)
	}
}

func TestStepPreservesPositivity(t *testing.T) {
	s, err := New(smallConfig(), 0.0909)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ensureForces(); err != nil {
		t.Fatal(err)
	}
	dt := s.SuggestDT()
	for i := 0; i < 2; i++ {
		if err := s.Step(dt); err != nil {
			t.Fatal(err)
		}
	}
	if mn := s.Grid.MinValue(); mn < 0 {
		t.Fatalf("negative f: %v", mn)
	}
}

func TestMomentumConservation(t *testing.T) {
	// Total canonical particle momentum should stay near zero (forces are
	// momentum-conserving; the Vlasov component exchanges momentum with the
	// particles only through the shared potential, which is small over two
	// steps from near-homogeneous ICs).
	s, err := New(smallConfig(), 0.0909)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ensureForces(); err != nil {
		t.Fatal(err)
	}
	dt := s.SuggestDT()
	if err := s.Step(dt); err != nil {
		t.Fatal(err)
	}
	mom := s.Part.TotalMomentum()
	// Scale: typical |u|·m·N.
	scale := 0.0
	for i := 0; i < s.Part.N; i++ {
		scale += math.Abs(s.Part.Vel[0][i]) * s.Part.Mass
	}
	if scale == 0 {
		t.Skip("zero velocities")
	}
	if math.Abs(mom[0])/scale > 0.05 {
		t.Fatalf("net momentum fraction %v", math.Abs(mom[0])/scale)
	}
}

func TestRunnerAdvancesToTarget(t *testing.T) {
	s, err := New(smallConfig(), 0.0909)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	rep, err := runner.Run(context.Background(), s, 0.095,
		runner.WithMaxSteps(50),
		runner.WithObserver(func(step int, _ runner.Solver) error {
			calls++
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if s.A < 0.0949 {
		t.Fatalf("a = %v, want ≈ 0.095", s.A)
	}
	if calls == 0 {
		t.Fatal("observer never invoked")
	}
	if s.Tim.Steps != calls || rep.Steps != calls {
		t.Fatalf("timed steps %d, report %d, observer calls %d", s.Tim.Steps, rep.Steps, calls)
	}
	if s.Tim.Vlasov == 0 || s.Tim.PM == 0 {
		t.Fatal("phase timers not accumulating")
	}
	if _, err := runner.Run(context.Background(), s, 0.01); err == nil {
		t.Fatal("backward evolution accepted")
	}
}

// TestRunLandsOnUntil: under the expansion cap a run from a₀ takes
// ⌈ln(until/a₀)/maxDLnA⌉ steps and ends on until exactly. The plain clamp
// a·exp(ln(until/a)) falls an ulp short from a₀ = 0.0909 to 0.1, 0.3 and 0.5,
// and each of those runs then took a sub-ulp step more: a whole force
// evaluation for nothing.
func TestRunLandsOnUntil(t *testing.T) {
	const a0 = 0.0909
	for _, until := range []float64{0.095, 0.1, 0.3, 0.5, 1} {
		s, err := New(gateConfigs()["nbody"], a0)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runner.Run(context.Background(), s, until)
		if err != nil {
			t.Fatal(err)
		}
		if want := int(math.Ceil(math.Log(until/a0) / maxDLnA)); rep.Steps != want || s.A != until {
			t.Errorf("run to %v: %d steps to a = %v, want %d steps to a = until", until, rep.Steps, s.A, want)
		}
	}
}

func TestSolverContract(t *testing.T) {
	s, err := New(smallConfig(), 0.0909)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Clock(); got != s.A {
		t.Fatalf("Clock %v != A %v", got, s.A)
	}
	// ClampDT caps the step in ln a at the target scale factor.
	want := math.Log(0.095 / s.A)
	if dt := s.ClampDT(1e12, 0.095); math.Abs(dt-want) > 1e-12*want {
		t.Fatalf("ClampDT %v, want %v", dt, want)
	}
	if dt := s.ClampDT(1e-12, 0.095); dt != 1e-12 {
		t.Fatalf("ClampDT shrank an already-safe dt to %v", dt)
	}
	d := s.Diagnostics()
	nu, cdm := s.TotalMass()
	if d.Clock != s.A || d.Time != s.Time || math.Abs(d.Mass-(nu+cdm)) > 1e-12*(nu+cdm) {
		t.Fatalf("diagnostics %+v", d)
	}
	if d.Extra["nu_mass"] != nu || d.Extra["cdm_mass"] != cdm {
		t.Fatalf("diagnostics extras %+v", d.Extra)
	}
}

func TestCheckpointRoundTripNuParticleBaseline(t *testing.T) {
	// The §5.4 baseline checkpoints through snapio v2's second particle
	// section and restores bit-identically.
	c := smallConfig()
	c.NuParticles = true
	s, err := New(c, 0.0909)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(s.SuggestDT()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := snapio.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NuPart == nil || snap.NuPart.N != s.NuPart.N {
		t.Fatalf("ν particles lost in checkpoint: %+v", snap.NuPart)
	}
	r, err := Restore(c, snap)
	if err != nil {
		t.Fatal(err)
	}
	if r.NuPart == nil || r.Grid != nil || r.VSol != nil {
		t.Fatal("restored baseline has the wrong components")
	}
	for d := 0; d < 3; d++ {
		for i := 0; i < s.NuPart.N; i += 53 {
			if r.NuPart.Pos[d][i] != s.NuPart.Pos[d][i] || r.NuPart.Vel[d][i] != s.NuPart.Vel[d][i] {
				t.Fatalf("ν particle %d dim %d not bit-identical", i, d)
			}
		}
	}
	if r.Time != s.Time || r.A != s.A {
		t.Fatalf("clock not restored: a %v vs %v, t %v vs %v", r.A, s.A, r.Time, s.Time)
	}
	// And the restored run keeps stepping.
	if err := r.Step(r.SuggestDT()); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCopiesNoState: a checkpoint streams the live grid and
// particles to the writer; writing one of a synchronised state allocates
// less than a quarter of the state's bytes, so no copy of it is made.
func TestCheckpointCopiesNoState(t *testing.T) {
	s, err := New(smallConfig(), 0.0909)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(s.SuggestDT()); err != nil {
		t.Fatal(err)
	}
	if err := s.Synchronize(); err != nil {
		t.Fatal(err)
	}
	state := 4*uint64(len(s.Grid.Data)) + 6*8*uint64(s.Part.N)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := s.Checkpoint(io.Discard)
	runtime.ReadMemStats(&after)
	if err != nil || uint64(n) < state {
		t.Fatalf("wrote %d bytes (%v) of a %d-byte state", n, err, state)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= state/4 {
		t.Fatalf("checkpoint allocated %d bytes for a %d-byte state (limit %d)", got, state, state/4)
	}
}

func TestGravityAmplifiesContrast(t *testing.T) {
	// Physics: over an expansion interval the CDM density contrast must
	// grow (gravitational instability), and the neutrino contrast must stay
	// well below the CDM contrast (free streaming).
	c := smallConfig()
	c.Seed = 7
	s, err := New(c, 0.0909)
	if err != nil {
		t.Fatal(err)
	}
	contrast := func() (cdm, nu float64) {
		mesh := make([]float64, s.PM.Size())
		if err := s.Part.CICDeposit(mesh, s.pmMesh); err != nil {
			t.Fatal(err)
		}
		cdm = rmsContrast(mesh)
		m := s.Grid.ComputeMoments()
		nu = rmsContrast(m.Density)
		return cdm, nu
	}
	c0, n0 := contrast()
	if _, err := runner.Run(context.Background(), s, 0.14, runner.WithMaxSteps(200)); err != nil {
		t.Fatal(err)
	}
	c1, n1 := contrast()
	if c1 <= c0 {
		t.Fatalf("CDM contrast did not grow: %v -> %v", c0, c1)
	}
	if n1 >= c1 {
		t.Fatalf("ν contrast %v not below CDM %v (free streaming)", n1, c1)
	}
	_ = n0
}

func rmsContrast(rho []float64) float64 {
	mean := 0.0
	for _, v := range rho {
		mean += v
	}
	mean /= float64(len(rho))
	if mean == 0 {
		return 0
	}
	s := 0.0
	for _, v := range rho {
		d := v/mean - 1
		s += d * d
	}
	return math.Sqrt(s / float64(len(rho)))
}

func TestNuParticlesBaselineMode(t *testing.T) {
	c := smallConfig()
	c.NuParticles = true
	s, err := New(c, 0.0909)
	if err != nil {
		t.Fatal(err)
	}
	if s.Grid != nil || s.VSol != nil {
		t.Fatal("Vlasov component created in particle-baseline mode")
	}
	if s.NuPart == nil || s.NuPart.N != 16*16*16 {
		t.Fatalf("neutrino particles missing or wrong count")
	}
	// Mass fraction still matches fν.
	nu, cdm := s.TotalMass()
	fnu := nu / (nu + cdm)
	if math.Abs(fnu-s.Cfg.Par.FNu())/s.Cfg.Par.FNu() > 0.02 {
		t.Fatalf("ν mass fraction %v", fnu)
	}
	if err := s.ensureForces(); err != nil {
		t.Fatal(err)
	}
	dt := s.SuggestDT()
	if err := s.Step(dt); err != nil {
		t.Fatal(err)
	}
	if s.A <= 0.0909 {
		t.Fatal("no progress")
	}
}

func TestNuParticlesExclusiveWithNoNeutrino(t *testing.T) {
	c := smallConfig()
	c.NuParticles = true
	c.NoNeutrino = true
	if _, err := New(c, 0.1); err == nil {
		t.Fatal("exclusive modes accepted")
	}
}

func TestLinearGrowthMatchesTheory(t *testing.T) {
	// Quantitative physics regression: in the linear regime the amplitude
	// of large-scale density modes grows by D(a1)/D(a0). Evolve a pure-CDM
	// PM run z = 10 → 5 and compare the lowest-k power ratio with the
	// growth factor squared.
	if testing.Short() {
		t.Skip("multi-second physics run")
	}
	c := Config{
		Par:        cosmo.Planck2015(0.0),
		Box:        500,
		NGrid:      8, // unused (NoNeutrino) but validated
		NU:         8,
		NPartSide:  16,
		PMMesh:     32, // fine mesh: a 5³ mesh loses half the k₁ force
		Seed:       11,
		NoNeutrino: true,
		NoTree:     true,
	}
	a0, a1 := 1.0/11, 0.2
	s, err := New(c, a0)
	if err != nil {
		t.Fatal(err)
	}
	lowK := func() float64 {
		mesh := make([]float64, s.PM.Size())
		if err := s.Part.CICDeposit(mesh, s.pmMesh); err != nil {
			t.Fatal(err)
		}
		_, pk, _, err := analysis.PowerSpectrum(mesh, s.pmMesh[0], c.Box, 4)
		if err != nil {
			t.Fatal(err)
		}
		return pk[0] // lowest-k bin
	}
	p0 := lowK()
	if _, err := runner.Run(context.Background(), s, a1); err != nil {
		t.Fatal(err)
	}
	p1 := lowK()
	growth := math.Sqrt(p1 / p0)
	want := s.Cfg.Par.GrowthFactor(a1) / s.Cfg.Par.GrowthFactor(a0)
	if math.Abs(growth-want)/want > 0.15 {
		t.Fatalf("mode growth %v, linear theory %v (%.0f%% off)",
			growth, want, 100*math.Abs(growth-want)/want)
	}
}

func TestRestoreContinuesRun(t *testing.T) {
	// Reference: one continuous run.
	cfg := smallConfig()
	ref, err := New(cfg, 0.0909)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.ensureForces(); err != nil {
		t.Fatal(err)
	}
	dt := ref.SuggestDT()
	// A snapshot holds a synchronised state, so every run here synchronises
	// after each step: the fields read below are then all at the clock.
	step := func(s *Simulation) {
		t.Helper()
		if err := s.Step(dt); err != nil {
			t.Fatal(err)
		}
		if err := s.Synchronize(); err != nil {
			t.Fatal(err)
		}
	}
	step(ref)
	step(ref)
	// Checkpointed: one step, save, restore, one step.
	s1, err := New(cfg, 0.0909)
	if err != nil {
		t.Fatal(err)
	}
	step(s1)
	s2, err := Restore(cfg, &snapio.Snapshot{A: s1.A, Time: s1.Time, Part: s1.Part, Grid: s1.Grid})
	if err != nil {
		t.Fatal(err)
	}
	step(s2)
	requireSameState(t, "continuous vs restored run", ref, s2)
}

func TestRestoreValidation(t *testing.T) {
	cfg := smallConfig()
	if _, err := Restore(cfg, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := Restore(cfg, &snapio.Snapshot{A: 0.1}); err == nil {
		t.Fatal("snapshot without particles accepted")
	}
	s, err := New(cfg, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := nbody.NewParticles(8, 1, [3]float64{200, 200, 200})
	if _, err := Restore(cfg, &snapio.Snapshot{A: 0.1, Part: small, Grid: s.Grid}); err == nil {
		t.Fatal("particle count mismatch accepted")
	}
	wrongGrid, _ := phase.New(6, 6, 6, [3]int{6, 6, 6}, [3]float64{200, 200, 200}, 1000)
	if _, err := Restore(cfg, &snapio.Snapshot{A: 0.1, Part: s.Part, Grid: wrongGrid}); err == nil {
		t.Fatal("grid shape mismatch accepted")
	}
	// A ν-particle config needs a snapshot that actually holds neutrino
	// particles: regenerating them would mix evolved CDM with fresh ICs.
	nuCfg := smallConfig()
	nuCfg.NuParticles = true
	if _, err := Restore(nuCfg, &snapio.Snapshot{A: 0.1, Part: s.Part}); err == nil {
		t.Fatal("ν-particle restore without ν particles accepted")
	}
	// And the converse: ν particles in the snapshot demand NuParticles mode.
	nu, _ := nbody.NewParticles(16*16*16, 1, [3]float64{200, 200, 200})
	if _, err := Restore(cfg, &snapio.Snapshot{A: 0.1, Part: s.Part, Grid: s.Grid, NuPart: nu}); err == nil {
		t.Fatal("stray ν particles accepted outside NuParticles mode")
	}
	// Wrong ν-particle count.
	badNu, _ := nbody.NewParticles(10, 1, [3]float64{200, 200, 200})
	if _, err := Restore(nuCfg, &snapio.Snapshot{A: 0.1, Part: s.Part, NuPart: badNu}); err == nil {
		t.Fatal("ν-particle count mismatch accepted")
	}
}

func TestRestoreAtTargetScaleFactor(t *testing.T) {
	// A run driven to a = 1 in cosmic time overshot it by a few ulps, and
	// its checkpoints hold that scale factor; that is a state like any other
	// to restore, though New would refuse to start there.
	cfg := gateConfigs()["nbody"]
	s, err := New(cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	const past = 1.0000000000003835
	r, err := Restore(cfg, &snapio.Snapshot{A: past, Time: cfg.Par.CosmicTime(1), Part: s.Part})
	if err != nil {
		t.Fatalf("checkpoint of a finished run does not restore: %v", err)
	}
	if r.A != past {
		t.Fatalf("restored a = %v", r.A)
	}
	if _, err := New(cfg, past); err == nil {
		t.Fatal("New accepted an initial scale factor beyond 1")
	}
	if _, err := Restore(cfg, &snapio.Snapshot{A: 0, Part: s.Part}); err == nil {
		t.Fatal("snapshot at a = 0 accepted")
	}
}

func TestRestoreSkipsICGeneration(t *testing.T) {
	// The fast-restore contract: a skeleton build installs snapshot state
	// without filling initial conditions, so the restored fields are the
	// snapshot's own slices (no copy, no regenerated-and-discarded ICs).
	cfg := smallConfig()
	s, err := New(cfg, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	snap := &snapio.Snapshot{A: s.A, Time: s.Time, Part: s.Part, Grid: s.Grid}
	r, err := Restore(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if r.Part != snap.Part || r.Grid != snap.Grid {
		t.Fatal("restore copied or regenerated component state")
	}
	if len(r.accPart[0]) != r.Part.N || len(r.accCell[0]) != r.Grid.NCells() {
		t.Fatal("force arrays not sized to the installed state")
	}
	if r.VSol == nil || r.PM == nil {
		t.Fatal("solver plumbing missing after skeleton restore")
	}
}

// gateConfigs are the three force paths of a step: the ν grid (a
// Synchronize re-rounds f and leaves the PM half stale, to be redone by
// whatever reads forces next; the tree half is reused), and the two
// particle-only modes, where nothing but a drift ever invalidates a force.
func gateConfigs() map[string]Config {
	nbody := smallConfig()
	nbody.NoNeutrino = true
	nbody.PMMesh = 16 // the default NPartSide/3 mesh is too coarse for the tree
	nuPart := smallConfig()
	nuPart.NuParticles = true
	return map[string]Config{"nu-grid": smallConfig(), "nbody": nbody, "nu-particles": nuPart}
}

// requireSameState fails unless a and b hold the same clock, grid and
// particles, bit for bit.
func requireSameState(t *testing.T, what string, a, b *Simulation) {
	t.Helper()
	if a.A != b.A || a.Time != b.Time {
		t.Fatalf("%s: clocks differ: a %v vs %v, t %v vs %v", what, a.A, b.A, a.Time, b.Time)
	}
	if a.Grid != nil {
		for i, v := range a.Grid.Data {
			if math.Float32bits(v) != math.Float32bits(b.Grid.Data[i]) {
				t.Fatalf("%s: grid value %d differs: %v vs %v", what, i, v, b.Grid.Data[i])
			}
		}
	}
	for _, set := range [][2]*nbody.Particles{{a.Part, b.Part}, {a.NuPart, b.NuPart}} {
		if set[0] == nil {
			continue
		}
		for d := 0; d < 3; d++ {
			for i := 0; i < set[0].N; i++ {
				if set[0].Pos[d][i] != set[1].Pos[d][i] || set[0].Vel[d][i] != set[1].Vel[d][i] {
					t.Fatalf("%s: particle %d differs in dimension %d", what, i, d)
				}
			}
		}
	}
}

// TestPhysicsGates runs the benchmark's cosmology checks at a shape Tier-1
// can afford, in every mode, so that a regression in the sweep kernel or the
// force path fails `go test ./...` and not only the nested benchmark module:
// five steps through the runner, checkpointed at the third, must conserve ν
// mass (boundary loss included) to 1e-6 and keep f ≥ 0 exactly, give the same
// state bit for bit with one and two workers, and be reproduced bit for bit
// by a run restored from the step-3 snapshot and continued through the
// runner. A restored run has no forces and evaluates them afresh where the
// live run reuses what its last step left, so the last gates are also the
// proof that reuse equals recomputation.
func TestPhysicsGates(t *testing.T) {
	const aInit, steps, ckptAt = 0.0909, 5, 3
	for name, cfg := range gateConfigs() {
		t.Run(name, func(t *testing.T) {
			// Every run takes the same cadence: where a run synchronises is
			// part of what it computes.
			run := func(s *Simulation, workers, steps int) *runner.Report {
				t.Helper()
				s.SetWorkers(workers)
				rep, err := runner.Run(context.Background(), s, 1,
					runner.WithMaxSteps(steps), runner.WithCheckpoint(t.TempDir(), ckptAt))
				if err != nil || rep.Steps != steps {
					t.Fatalf("run with %d workers: %d steps, err %v", workers, rep.Steps, err)
				}
				return rep
			}
			fresh := func() *Simulation {
				t.Helper()
				s, err := New(cfg, aInit)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			s := fresh()
			rep := run(s, 1, steps)
			if s.Cfg.NoTree {
				t.Fatal("tree silently disabled: the gates would not cover it")
			}
			if s.Grid != nil {
				nu0, _ := fresh().TotalMass()
				nu1, _ := s.TotalMass()
				if drift := math.Abs(nu1+s.VSol.BoundaryLoss-nu0) / nu0; drift > 1e-6 {
					t.Fatalf("ν mass + boundary loss drifted by %.3g over %d steps", drift, steps)
				}
				if mn := s.Grid.MinValue(); mn < 0 {
					t.Fatalf("negative distribution function: min %g", mn)
				}
			}
			two := fresh()
			run(two, 2, steps)
			requireSameState(t, "1 vs 2 workers", s, two)

			// Restore the step-3 snapshot and run the remaining steps: the
			// live run continued from exactly that state.
			f, err := os.Open(rep.Checkpoints[0])
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			snap, err := snapio.Read(f)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := Restore(cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			run(resumed, 2, steps-ckptAt)
			requireSameState(t, "live vs resumed from step 3", s, resumed)

			// And step by step outside the runner, suggested dt included.
			var buf bytes.Buffer
			if _, err := s.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			if snap, err = snapio.Read(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := Restore(cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			r.SetWorkers(1)
			for i := 0; i < 2; i++ {
				dt := s.SuggestDT()
				if rdt := r.SuggestDT(); rdt != dt {
					t.Fatalf("restored run suggests dt %v, live run %v", rdt, dt)
				}
				if err := s.Step(dt); err != nil {
					t.Fatal(err)
				}
				if err := r.Step(dt); err != nil {
					t.Fatal(err)
				}
				requireSameState(t, "live vs restored", s, r)
			}
		})
	}
}

// stepCounts is what a step is made of, read off the exact counters.
type stepCounts struct{ kick, drift, pm, tree int }

func countsSince(s *Simulation, before Timings) stepCounts {
	return stepCounts{
		kick:  s.Tim.KickSweeps - before.KickSweeps,
		drift: s.Tim.DriftSweeps - before.DriftSweeps,
		pm:    s.Tim.PMEvals - before.PMEvals,
		tree:  s.Tim.TreeEvals - before.TreeEvals,
	}
}

// TestOneForceEvaluationPerStep counts what a step pays for. In steady state
// a ν-grid step is three kick sweeps, three drift sweeps, one PM and one tree
// evaluation, and the SuggestDT before it is free: the forces a step ends on
// are the ones the next opens with, and the closing half kick rides the next
// opening one. A Synchronize is one more kick; with a ν grid it re-rounds f,
// so the next reader of the forces — SuggestDT here — redoes the PM half,
// and only that. The step after it, like the first of a run, opens with a
// plain half kick: same counts, no debt carried in.
func TestOneForceEvaluationPerStep(t *testing.T) {
	for name, cfg := range gateConfigs() {
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg, 0.0909)
			if err != nil {
				t.Fatal(err)
			}
			sweeps := 0 // Vlasov sweeps per kick or drift
			if s.Grid != nil {
				sweeps = 3
			}
			// step is SuggestDT and Step; evals is how often they evaluate each
			// half of the force between them. It returns the kick the step
			// owes: the cosmic time of its second half.
			step := func(what string, wantOwedIn float64, evals int) float64 {
				t.Helper()
				if s.owed != wantOwedIn {
					t.Fatalf("%s: opens owing %v, want %v", what, s.owed, wantOwedIn)
				}
				before := s.Tim
				dlna := s.SuggestDT()
				_, kick2, _ := s.Cfg.Par.StepFactors(s.A, dlna)
				if err := s.Step(dlna); err != nil {
					t.Fatal(err)
				}
				if got, want := countsSince(s, before), (stepCounts{sweeps, sweeps, evals, evals}); got != want {
					t.Fatalf("%s with its SuggestDT: %+v, want %+v", what, got, want)
				}
				if s.owed != kick2 || !s.pmValid || !s.treeValid {
					t.Fatalf("%s: left owing %v of the closing half's %v, pmValid %v, treeValid %v", what, s.owed, kick2, s.pmValid, s.treeValid)
				}
				return kick2
			}
			owed := step("first step", 0, 2) // the initial evaluation and the step's own
			for i := 0; i < 3; i++ {
				owed = step("steady-state step", owed, 1)
			}

			before := s.Tim
			for i := 0; i < 2; i++ { // the second call has nothing to pay
				if err := s.Synchronize(); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := countsSince(s, before), (stepCounts{kick: sweeps}); got != want {
				t.Fatalf("Synchronize twice: %+v, want %+v", got, want)
			}
			if s.owed != 0 || !s.treeValid || s.pmValid != (s.Grid == nil) {
				t.Fatalf("Synchronize left owing %v, pmValid %v, treeValid %v", s.owed, s.pmValid, s.treeValid)
			}
			before = s.Tim
			s.SuggestDT()
			if got, want := countsSince(s, before), (stepCounts{pm: sweeps / 3}); got != want { // one PM half iff a ν grid
				t.Fatalf("SuggestDT after Synchronize: %+v, want %+v", got, want)
			}
			step("step after Synchronize", 0, 1)
		})
	}
}

// TestSynchronizeIsIdempotent: Synchronize is free on a fresh simulation,
// pays once after a step, leaves the live state equal to the snapshot that
// called it, and is free again on the simulation restored from it.
func TestSynchronizeIsIdempotent(t *testing.T) {
	for name, cfg := range gateConfigs() {
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg, 0.0909)
			if err != nil {
				t.Fatal(err)
			}
			noOp := func(what string, s *Simulation) {
				t.Helper()
				before := s.Tim
				if err := s.Synchronize(); err != nil {
					t.Fatal(err)
				}
				if s.Tim != before {
					t.Fatalf("Synchronize on a %s simulation did work: %+v → %+v", what, before, s.Tim)
				}
			}
			noOp("fresh", s)
			for i := 0; i < 2; i++ {
				if err := s.Step(s.SuggestDT()); err != nil {
					t.Fatal(err)
				}
			}
			vel := s.Part.Vel[0][0]
			var buf bytes.Buffer
			if _, err := s.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			if s.Part.Vel[0][0] == vel {
				t.Fatal("a checkpoint after a step did not apply the owed half kick")
			}
			noOp("checkpointed", s)
			snap, err := snapio.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Restore(cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			requireSameState(t, "snapshot vs the live state it synchronised", s, r)
			noOp("restored", r)
		})
	}
}

// TestFusedStepsMatchSynchronizedSteps: a run that fuses adjacent half kicks
// and one that synchronises after every step integrate the same splitting.
// They differ by roundings and, with a ν grid, by one interpolation per step
// at a velocity CFL of order 1e-3 or less and by a PM half solved from f
// rounded at other times: positions agree to 1e-9 of the box (measured
// 7e-13), velocities to 1e-7 of the largest (2e-9), f to 1e-5 of its maximum
// (7e-7). With no acceleration at all a kick is the identity and the two runs
// agree bit for bit.
func TestFusedStepsMatchSynchronizedSteps(t *testing.T) {
	const steps = 6
	pair := func(t *testing.T, cfg Config, prepare func(*Simulation)) (fused, split *Simulation) {
		t.Helper()
		sims := [2]*Simulation{}
		for i := range sims {
			s, err := New(cfg, 0.0909)
			if err != nil {
				t.Fatal(err)
			}
			if prepare != nil {
				prepare(s)
			}
			sims[i] = s
		}
		fused, split = sims[0], sims[1]
		for i := 0; i < steps; i++ {
			dt := split.SuggestDT() * (1 - 0.1*float64(i%3)) // adjacent steps differ
			if err := fused.Step(dt); err != nil {
				t.Fatal(err)
			}
			if err := split.Step(dt); err != nil {
				t.Fatal(err)
			}
			if err := split.Synchronize(); err != nil {
				t.Fatal(err)
			}
		}
		if err := fused.Synchronize(); err != nil {
			t.Fatal(err)
		}
		if fused.Tim.KickSweeps >= split.Tim.KickSweeps && fused.Grid != nil {
			t.Fatalf("fused run swept %d kicks, synchronised run %d", fused.Tim.KickSweeps, split.Tim.KickSweeps)
		}
		return fused, split
	}
	for name, cfg := range gateConfigs() {
		t.Run(name, func(t *testing.T) {
			fused, split := pair(t, cfg, nil)
			if fused.A != split.A || fused.Time != split.Time {
				t.Fatalf("clocks differ: a %v vs %v", fused.A, split.A)
			}
			for _, set := range [][2]*nbody.Particles{{fused.Part, split.Part}, {fused.NuPart, split.NuPart}} {
				if set[0] == nil {
					continue
				}
				for d := 0; d < 3; d++ {
					vmax := 0.0
					for _, v := range set[1].Vel[d] {
						vmax = math.Max(vmax, math.Abs(v))
					}
					for i := range set[0].Pos[d] {
						if dx := math.Abs(set[0].Pos[d][i] - set[1].Pos[d][i]); dx > 1e-9*cfg.Box {
							t.Fatalf("particle %d dim %d: positions differ by %.3g of the box", i, d, dx/cfg.Box)
						}
						if dv := math.Abs(set[0].Vel[d][i] - set[1].Vel[d][i]); dv > 1e-7*vmax {
							t.Fatalf("particle %d dim %d: velocities differ by %.3g of the largest", i, d, dv/vmax)
						}
					}
				}
			}
			if fused.Grid != nil {
				maxF, maxDiff := 0.0, 0.0
				for i, v := range split.Grid.Data {
					maxF = math.Max(maxF, float64(v))
					maxDiff = math.Max(maxDiff, math.Abs(float64(v-fused.Grid.Data[i])))
				}
				if maxDiff > 1e-5*maxF {
					t.Fatalf("f differs by %.3g of its maximum", maxDiff/maxF)
				}
			}

			// No acceleration: massless particles (no tree — its nodes would
			// have no centre of mass) and a ν grid uniform in space source a
			// uniform density, whose potential is exactly flat.
			still := cfg
			still.NoTree = true
			fused, split = pair(t, still, func(s *Simulation) {
				s.Part.Mass = 0
				if s.NuPart != nil {
					s.NuPart.Mass = 0
				}
				if s.Grid != nil {
					for cell := 1; cell < s.Grid.NCells(); cell++ {
						copy(s.Grid.CubeAt(cell), s.Grid.CubeAt(0))
					}
				}
				if err := s.ensureForces(); err != nil {
					t.Fatal(err)
				}
				for d := 0; d < 3; d++ {
					for _, acc := range [][]float64{s.accPart[d], s.accNuPart[d], s.accCell[d]} {
						for i, a := range acc {
							if a != 0 {
								t.Fatalf("acceleration %v at %d in dimension %d: the construction is not force-free", a, i, d)
							}
						}
					}
				}
			})
			requireSameState(t, "force-free fused vs synchronised", fused, split)
		})
	}
}

// TestRestoredRunSuggestsLiveDT: where the velocity CFL is the binding limit
// the suggested step is a function of the mesh acceleration, so a restored
// run and the live one agree on it only if both solved the PM half from the
// same, re-rounded f. (At the shapes of TestPhysicsGates another limit binds
// and hides a difference, so both runs take the Vlasov limit at a velocity
// CFL target of 1e-4, once SuggestDT has computed their forces.) Bit for
// bit, dt and state, over four steps.
func TestRestoredRunSuggestsLiveDT(t *testing.T) {
	const tightCFLU = 1e-4
	// The Vlasov limits are cosmic-time intervals; H(a) takes them to ln a.
	suggest := func(s *Simulation) float64 {
		s.SuggestDT()
		return s.Cfg.Par.Hubble(s.A) * s.VSol.SuggestDT(s.A, s.accCell, cflX, tightCFLU)
	}
	cfg := smallConfig()
	s, err := New(cfg, 0.0909)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(1)
	for i := 0; i < 2; i++ {
		if err := s.Step(suggest(s)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := snapio.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	r.SetWorkers(1)
	for i := 0; i < 4; i++ {
		dt := suggest(s)
		if full, without := s.SuggestDT(), s.Cfg.Par.Hubble(s.A)*s.VSol.SuggestDT(s.A, s.accCell, cflX, math.Inf(1)); full <= dt || without <= dt {
			t.Fatalf("step %d: the velocity CFL does not bind (dt %v, SuggestDT %v, without the velocity CFL %v)", i, dt, full, without)
		}
		if rdt := suggest(r); rdt != dt {
			t.Fatalf("step %d: restored run suggests dt %v, live run %v", i, rdt, dt)
		}
		if err := s.Step(dt); err != nil {
			t.Fatal(err)
		}
		if err := r.Step(dt); err != nil {
			t.Fatal(err)
		}
		requireSameState(t, "live vs restored", s, r)
	}
}

// TestForcesSteadyStateZeroAlloc: with one worker a warmed step allocates
// nothing — the in-place tree rebuild, the group walk, the PM transforms,
// gradient and interpolation of an N-body step, and with a ν grid also the
// density reduction, the resample and the Vlasov sweeps.
func TestForcesSteadyStateZeroAlloc(t *testing.T) {
	for _, name := range []string{"nbody", "nu-grid"} {
		s, err := New(gateConfigs()[name], 0.0909)
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(1)
		dt := s.SuggestDT()
		for i := 0; i < 2; i++ {
			if err := s.Step(dt); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := s.Step(dt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state %s step allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
}
