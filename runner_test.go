package vlasov6d

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"vlasov6d/internal/runner"
)

func runnerTestConfig() Config {
	return Config{
		Par:       Planck2015(0.4),
		Box:       200,
		NGrid:     6,
		NU:        6,
		NPartSide: 6,
		PMFactor:  2,
		Seed:      3,
	}
}

// TestRunCancellationPartialProgress: cancelling the context mid-run stops
// the driver with a partial-progress error that wraps context.Canceled.
func TestRunCancellationPartialProgress(t *testing.T) {
	sim, err := NewSimulation(runnerTestConfig(), 1.0/11)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := Run(ctx, sim, 0.5, WithObserver(func(step int, _ Solver) error {
		if step == 1 {
			cancel()
		}
		return nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Steps != 2 {
		t.Fatalf("partial progress %d steps, want 2", rep.Steps)
	}
	if rep.Clock <= 1.0/11 {
		t.Fatalf("clock %v did not advance before cancellation", rep.Clock)
	}
}

// TestRunWallClockBudget: the wall-clock budget stops the run between steps
// (taking at least one) and reports the reason rather than an error.
func TestRunWallClockBudget(t *testing.T) {
	sim, err := NewSimulation(runnerTestConfig(), 1.0/11)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), sim, 0.5, WithWallClock(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != ReasonWallClock {
		t.Fatalf("reason %v, want wall-clock", rep.Reason)
	}
	if rep.Steps != 1 {
		t.Fatalf("steps %d, want exactly 1 under a 1ns budget", rep.Steps)
	}
}

// TestRunObserverMonotoneScale: the observer sees strictly increasing scale
// factors, consistent between Clock and Diagnostics.
func TestRunObserverMonotoneScale(t *testing.T) {
	sim, err := NewSimulation(runnerTestConfig(), 1.0/11)
	if err != nil {
		t.Fatal(err)
	}
	var clocks []float64
	_, err = Run(context.Background(), sim, 0.5, WithMaxSteps(5),
		WithObserver(func(step int, s Solver) error {
			d := s.Diagnostics()
			if d.Clock != s.Clock() {
				t.Fatalf("step %d: diagnostics clock %v != Clock %v", step, d.Clock, s.Clock())
			}
			clocks = append(clocks, s.Clock())
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(clocks) != 5 {
		t.Fatalf("observer saw %d steps", len(clocks))
	}
	prev := 1.0 / 11
	for i, a := range clocks {
		if a <= prev {
			t.Fatalf("scale factor not monotone at step %d: %v after %v", i, a, prev)
		}
		prev = a
	}
}

// TestRunCheckpointRestore: checkpoints written at the configured cadence
// round-trip bit-identically through snapio, and a simulation restored from
// the latest checkpoint continues under Run.
func TestRunCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	cfg := runnerTestConfig()
	sim, err := NewSimulation(cfg, 1.0/11)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), sim, 0.5, WithMaxSteps(4), WithCheckpoint(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checkpoints) != 2 {
		t.Fatalf("checkpoints %v, want 2 at cadence 2 over 4 steps", rep.Checkpoints)
	}
	raw, err := os.ReadFile(rep.Checkpoints[1])
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != rep.CheckpointBytes/2 {
		t.Fatalf("checkpoint sizes: file %d, reported total %d", len(raw), rep.CheckpointBytes)
	}
	snap, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Bit-identical round trip: the latest checkpoint holds exactly the
	// simulation's current state...
	if snap.A != sim.A || snap.Time != sim.Time {
		t.Fatalf("checkpoint a=%v t=%v, sim a=%v t=%v", snap.A, snap.Time, sim.A, sim.Time)
	}
	for d := 0; d < 3; d++ {
		for i := range snap.Part.Pos[d] {
			if snap.Part.Pos[d][i] != sim.Part.Pos[d][i] || snap.Part.Vel[d][i] != sim.Part.Vel[d][i] {
				t.Fatalf("particle %d dim %d not bit-identical", i, d)
			}
		}
	}
	for i := range snap.Grid.Data {
		if snap.Grid.Data[i] != sim.Grid.Data[i] {
			t.Fatalf("grid cell %d not bit-identical", i)
		}
	}
	// ...and re-serialising the read-back snapshot reproduces the file
	// byte for byte.
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("snapshot re-serialisation is not bit-identical")
	}
	// Resume from the checkpoint and keep running under the same driver.
	resumed, err := RestoreSimulation(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(context.Background(), resumed, 0.5, WithMaxSteps(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Steps != 2 || resumed.A <= snap.A {
		t.Fatalf("resumed run: %d steps, a %v → %v", rep2.Steps, snap.A, resumed.A)
	}
}

// TestRunPlasmaLandau: the 1D1V plasma solver runs under the identical
// driver, with clock = plasma time and conserved mass.
func TestRunPlasmaLandau(t *testing.T) {
	s, err := NewPlasmaSolverWithScheme(32, 64, 4*math.Pi, 6, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	s.LandauInit(0.01, 0.5, 1)
	m0 := s.TotalMass()
	rep, err := Run(context.Background(), s, 1.0, runner.WithFixedDT(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != ReasonUntil {
		t.Fatalf("reason %v", rep.Reason)
	}
	if rep.Steps < 20 || rep.Steps > 21 { // 20 + possibly one round-off step
		t.Fatalf("steps %d", rep.Steps)
	}
	if math.Abs(s.Clock()-1.0) > 1e-9 {
		t.Fatalf("clock %v, want 1.0", s.Clock())
	}
	if drift := math.Abs(s.TotalMass()-m0) / m0; drift > 1e-8 {
		t.Fatalf("mass drift %v", drift)
	}
	d := s.Diagnostics()
	if d.Extra["field_energy"] <= 0 {
		t.Fatalf("diagnostics %+v", d)
	}
	// Adaptive stepping works too: SuggestDT must be positive and stable.
	if dt := s.SuggestDT(); dt <= 0 || dt > 0.4*s.DX()/s.VMax+1e-15 {
		t.Fatalf("SuggestDT %v", dt)
	}
}

// TestRunNBodyControl: the pure N-body control run (no Vlasov component)
// drives through the same Solver interface.
func TestRunNBodyControl(t *testing.T) {
	cfg := runnerTestConfig()
	cfg.NPartSide = 12
	cfg.NoTree = true
	sim, err := NewSimulation(cfg, 0.1, WithoutNeutrinos())
	if err != nil {
		t.Fatal(err)
	}
	if sim.Grid != nil || sim.VSol != nil {
		t.Fatal("control run built a Vlasov component")
	}
	rep, err := Run(context.Background(), sim, 0.5, WithMaxSteps(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 3 || sim.A <= 0.1 {
		t.Fatalf("steps %d, a %v", rep.Steps, sim.A)
	}
}

// snapshotlessSolver implements Solver but not Checkpointer: the plasma
// solver used to play this role until it gained checkpoint support.
type snapshotlessSolver struct{ t float64 }

func (s *snapshotlessSolver) Step(dt float64) error { s.t += dt; return nil }
func (s *snapshotlessSolver) SuggestDT() float64    { return 0.1 }
func (s *snapshotlessSolver) Clock() float64        { return s.t }
func (s *snapshotlessSolver) Diagnostics() RunDiagnostics {
	return RunDiagnostics{Clock: s.t, Time: s.t, Mass: 1}
}

// TestRunCheckpointNeedsSupport: asking the driver to checkpoint a solver
// without snapshot support fails up front, before any stepping.
func TestRunCheckpointNeedsSupport(t *testing.T) {
	rep, err := Run(context.Background(), &snapshotlessSolver{}, 1.0, WithCheckpoint(t.TempDir(), 1))
	if err == nil {
		t.Fatal("checkpointing accepted for a solver without snapshot support")
	}
	if rep.Steps != 0 {
		t.Fatalf("driver stepped %d times before rejecting", rep.Steps)
	}
}

// TestRunPlasmaCheckpointRestore: the plasma solver checkpoints under the
// driver's cadence and a snapshot restores to the exact state — the
// capability scheduler-level sweep resume is built on.
func TestRunPlasmaCheckpointRestore(t *testing.T) {
	s, err := NewPlasmaSolverWithScheme(32, 64, 4*math.Pi, 6, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	s.LandauInit(0.01, 0.5, 1)
	dir := t.TempDir()
	rep, err := Run(context.Background(), s, 1.0, runner.WithFixedDT(0.05), WithCheckpoint(dir, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checkpoints) != 2 { // steps 10 and 20
		t.Fatalf("checkpoints %v", rep.Checkpoints)
	}
	f, err := os.Open(rep.Checkpoints[len(rep.Checkpoints)-1])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := RestorePlasmaSolver(f)
	if err != nil {
		t.Fatal(err)
	}
	if r.Time != s.Time {
		t.Fatalf("restored clock %v, want %v", r.Time, s.Time)
	}
	for i := range s.F {
		if r.F[i] != s.F[i] {
			t.Fatalf("restored F differs at %d", i)
		}
	}
}

// TestRunCheckpointNuParticleBaseline: the §5.4 ν-particle baseline
// checkpoints through snapio format v2 and resumes under Run.
func TestRunCheckpointNuParticleBaseline(t *testing.T) {
	dir := t.TempDir()
	cfg := runnerTestConfig()
	sim, err := NewSimulation(cfg, 0.1, WithNuParticleBaseline(0))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), sim, 0.5, WithMaxSteps(2), WithCheckpoint(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checkpoints) != 1 {
		t.Fatalf("checkpoints %v", rep.Checkpoints)
	}
	snap, path, err := ResumeLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != rep.Checkpoints[0] {
		t.Fatalf("latest %s, want %s", path, rep.Checkpoints[0])
	}
	if snap.NuPart == nil || snap.NuPart.N != sim.NuPart.N {
		t.Fatalf("ν particles missing from the checkpoint")
	}
	resumed, err := RestoreSimulation(cfg, snap, WithNuParticleBaseline(0))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.A != sim.A || resumed.Time != sim.Time {
		t.Fatalf("resume clock a=%v t=%v, want a=%v t=%v", resumed.A, resumed.Time, sim.A, sim.Time)
	}
	if rep2, err := Run(context.Background(), resumed, 0.5, WithMaxSteps(1)); err != nil || rep2.Steps != 1 {
		t.Fatalf("resumed baseline run: %v (%+v)", err, rep2)
	}
}

// TestNewSimulationValidatesConfig: invalid configs fail at construction
// with descriptive errors — never as deferred panics inside Step.
func TestNewSimulationValidatesConfig(t *testing.T) {
	for name, opt := range map[string]SimOption{
		"negative box":        func(c *Config) { c.Box = -100 },
		"zero box":            func(c *Config) { c.Box = 0 },
		"zero NGrid":          func(c *Config) { c.NGrid = 0 },
		"negative NU":         func(c *Config) { c.NU = -6 },
		"bad PM mesh":         func(c *Config) { c.PMMesh = 7 }, // not a multiple of NGrid = 6
		"negative tree theta": func(c *Config) { c.Theta = -1 },
	} {
		if _, err := NewSimulation(runnerTestConfig(), 0.1, opt); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Options are applied on a copy: the caller's Config is untouched.
	cfg := runnerTestConfig()
	if _, err := NewSimulation(cfg, 0.1, WithScheme("mp5")); err != nil {
		t.Fatal(err)
	}
	if cfg.Scheme != "" {
		t.Fatal("SimOption mutated the caller's Config")
	}
}

// bareWrapper is what an instrumenting caller writes: it embeds the Solver
// interface, forwards checkpoints, and knows nothing of Synchronize.
type bareWrapper struct{ Solver }

func (w bareWrapper) Checkpoint(wr io.Writer) (int64, error) {
	return w.Solver.(runner.Checkpointer).Checkpoint(wr)
}

// TestRunSynchronizesSolversNotWrappers: Run hands back a solver that owes
// nothing. Behind a wrapper that hides Synchronize the exit-time kick is the
// caller's to apply, but every snapshot is still of a synchronised state —
// the solver sees to that itself — so the run restored from one and
// continued lands bit for bit on the live run, once that is synchronised.
func TestRunSynchronizesSolversNotWrappers(t *testing.T) {
	ctx := context.Background()
	newPlasma := func() *PlasmaSolver {
		t.Helper()
		s, err := NewPlasmaSolverWithScheme(32, 64, 4*math.Pi, 6, "slmpp5")
		if err != nil {
			t.Fatal(err)
		}
		s.LandauInit(0.01, 0.5, 1)
		return s
	}
	direct := newPlasma()
	if _, err := Run(ctx, direct, 10, WithMaxSteps(3), WithCheckpoint(t.TempDir(), 2)); err != nil {
		t.Fatal(err)
	}
	after := slices.Clone(direct.F)
	if err := direct.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after, direct.F) {
		t.Fatal("Run returned a plasma solver that still owed a half kick")
	}

	wrapped := newPlasma()
	rep, err := Run(ctx, bareWrapper{wrapped}, 10, WithMaxSteps(3), WithCheckpoint(t.TempDir(), 2))
	if err != nil || len(rep.Checkpoints) != 1 {
		t.Fatalf("wrapped run: %+v, err %v", rep, err)
	}
	if err := wrapped.Synchronize(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(rep.Checkpoints[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	resumed, err := RestorePlasmaSolver(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, resumed, 10, WithMaxSteps(1)); err != nil {
		t.Fatal(err)
	}
	for i, v := range direct.F {
		if wrapped.F[i] != v || resumed.F[i] != v {
			t.Fatalf("F[%d]: direct %v, wrapped %v, resumed from the wrapped run's snapshot %v", i, v, wrapped.F[i], resumed.F[i])
		}
	}

	// The hybrid simulation through the same wrapper: the cadence-1 snapshot
	// is the state the simulation is left in (the benchmark's read-back).
	sim, err := NewSimulation(runnerTestConfig(), 1.0/11)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Run(ctx, bareWrapper{sim}, 0.5, WithMaxSteps(2), WithCheckpoint(dir, 1)); err != nil {
		t.Fatal(err)
	}
	snap, _, err := ResumeLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.A != sim.A {
		t.Fatalf("snapshot at a = %v, simulation at %v", snap.A, sim.A)
	}
	for i, v := range sim.Grid.Data {
		if snap.Grid.Data[i] != v {
			t.Fatalf("grid cell %d: snapshot %v, live %v", i, snap.Grid.Data[i], v)
		}
	}
	for d := 0; d < 3; d++ {
		for i, v := range sim.Part.Vel[d] {
			if snap.Part.Vel[d][i] != v {
				t.Fatalf("particle %d dim %d: snapshot velocity %v, live %v", i, d, snap.Part.Vel[d][i], v)
			}
		}
	}
}
