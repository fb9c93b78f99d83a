package main

import (
	"context"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vlasov6d"
	"vlasov6d/internal/advect"
	"vlasov6d/internal/fft"
	"vlasov6d/internal/ic"
	"vlasov6d/internal/phase"
	"vlasov6d/internal/poisson"
	"vlasov6d/internal/runner"
	"vlasov6d/internal/tree"
	"vlasov6d/internal/vlasov"
)

// aInit is the starting scale factor of the cosmological workloads (z = 10).
const aInit = 1.0 / 11

// cosmoShape is the fixed size of a cosmological workload; only Seed varies
// between runs.
type cosmoShape struct {
	cfg       vlasov6d.Config
	opts      []vlasov6d.SimOption
	ckptEvery int
	tailP     float64 // tail percentile, fixed per workload
}

// hybridShape is the paper's production step: ν-Vlasov on a 10³×10³ phase
// grid (10⁶ cells, 4 MB of float32, about twice a core's L2) coupled to
// TreePM CDM. One worker: the plain single-threaded baseline.
func hybridShape(e *env) cosmoShape {
	s := cosmoShape{
		cfg: vlasov6d.Config{Par: vlasov6d.Planck2015(0.4), Box: 200,
			NGrid: 10, NU: 10, NPartSide: 12, PMFactor: 2, Workers: 1, Seed: e.seed},
		ckptEvery: 15,
		tailP:     75,
	}
	if e.smoke {
		s.cfg.NGrid, s.cfg.NU, s.cfg.NPartSide = 6, 6, 6
	}
	return s
}

// nbodyShape is the same Simulation without neutrinos: vlasov, phase and
// advect do nothing, tree and PM do everything. The explicit PM mesh keeps
// the tree on (the default NPartSide/3 mesh silently selects NoTree).
func nbodyShape(e *env) cosmoShape {
	s := cosmoShape{
		cfg: vlasov6d.Config{Par: vlasov6d.Planck2015(0.4), Box: 200,
			NPartSide: 32, PMMesh: 64, Workers: 1, Seed: e.seed},
		opts:      []vlasov6d.SimOption{vlasov6d.WithoutNeutrinos()},
		ckptEvery: 20,
		tailP:     75,
	}
	if e.smoke {
		s.cfg.NPartSide, s.cfg.PMMesh = 12, 24
	}
	return s
}

// cosmoSetup is construction to the first timed op: NewSimulation plus one
// warm-up step, which primes the forces.
type cosmoInst struct {
	sim  *vlasov6d.Simulation
	newT time.Duration
}

func setupCosmo(sh cosmoShape) (cosmoInst, error) {
	t0 := time.Now()
	sim, err := vlasov6d.NewSimulation(sh.cfg, aInit, sh.opts...)
	if err != nil {
		return cosmoInst{}, err
	}
	newT := time.Since(t0)
	if _, err := vlasov6d.Run(context.Background(), sim, 1, vlasov6d.WithMaxSteps(1)); err != nil {
		return cosmoInst{}, err
	}
	return cosmoInst{sim: sim, newT: newT}, nil
}

// tracedSolver wraps a Solver to record a span around each call the runner
// makes into it. It forwards the optional capabilities the runner probes
// for (dt clamping, checkpoints, worker resize), so the wrapped run takes
// the same path as the bare one.
type tracedSolver struct {
	runner.Solver
	rec    *recorder
	run    string
	parent int64
	layer  string // span name prefix: the solver's layer
}

func (t *tracedSolver) Step(dt float64) error {
	t0 := time.Now()
	err := t.Solver.Step(dt)
	t.rec.add(t.run, t.layer+".step", t.parent, t0, time.Now())
	return err
}

func (t *tracedSolver) SuggestDT() float64 {
	t0 := time.Now()
	dt := t.Solver.SuggestDT()
	t.rec.add(t.run, t.layer+".suggest_dt", t.parent, t0, time.Now())
	return dt
}

func (t *tracedSolver) ClampDT(dt, until float64) float64 {
	if c, ok := t.Solver.(runner.DTClamper); ok {
		return c.ClampDT(dt, until)
	}
	if c := t.Clock(); c+dt > until {
		return until - c
	}
	return dt
}

func (t *tracedSolver) Checkpoint(w io.Writer) (int64, error) {
	return t.Solver.(runner.Checkpointer).Checkpoint(w)
}

func (t *tracedSolver) SetWorkers(n int) {
	if b, ok := t.Solver.(runner.WorkerBudgeted); ok {
		b.SetWorkers(n)
	}
}

// timedCosmoRun drives sim through vlasov6d.Run for d of wall-clock with
// the workload's checkpoint cadence. An op is one step as its user sees it:
// the interval between two step completions (SuggestDT, the step, and a
// checkpoint write when one falls in it). With a recorder the run is traced.
func timedCosmoRun(e *env, sh cosmoShape, sim *vlasov6d.Simulation, d time.Duration, tag string, rec *recorder) (opStats, *vlasov6d.RunReport, error) {
	ckptDir := filepath.Join(e.dir, "ckpt-"+tag)
	var ops []time.Duration
	var solver vlasov6d.Solver = sim
	runID := rec.reserve()
	opts := []vlasov6d.RunOption{
		vlasov6d.WithWallClock(d),
		vlasov6d.WithCheckpoint(ckptDir, sh.ckptEvery),
	}
	if rec != nil {
		solver = &tracedSolver{Solver: sim, rec: rec, run: tag, parent: runID, layer: "hybrid"}
		opts = append(opts, runner.WithCheckpointTimer(func(_ float64, d time.Duration) {
			now := time.Now()
			rec.add(tag, "runner.checkpoint", runID, now.Add(-d), now)
		}))
	}
	last := time.Now()
	opts = append(opts, vlasov6d.WithObserver(func(int, vlasov6d.Solver) error {
		now := time.Now()
		ops = append(ops, now.Sub(last))
		last = now
		return nil
	}))
	start := last
	rep, err := vlasov6d.Run(context.Background(), solver, 1, opts...)
	end := time.Now()
	rec.addAs(runID, tag, "runner.run", 0, start, end)
	if err != nil {
		return opStats{}, rep, err
	}
	e.chk.ok(rep.Reason == vlasov6d.ReasonWallClock || rep.Reason == vlasov6d.ReasonUntil,
		"%s: stop reason %v", tag, rep.Reason)
	e.chk.ok(rep.Steps == len(ops) && len(rep.Checkpoints) == rep.Steps/sh.ckptEvery,
		"%s: %d steps, %d observed, %d checkpoints at cadence %d",
		tag, rep.Steps, len(ops), len(rep.Checkpoints), sh.ckptEvery)
	return opStats{ops: ops, wall: end.Sub(start)}, rep, nil
}

// runCosmo is the hybrid_step / nbody_step workload.
func runCosmo(e *env, sh cosmoShape) error {
	reps := 3
	if e.trace {
		reps = 1
	}
	inst, setups, err := repeatSetup(reps, reps, 0,
		func(int) (cosmoInst, error) { return setupCosmo(sh) }, func(cosmoInst) {})
	if err != nil {
		return err
	}
	sim := inst.sim
	if e.trace {
		// A traced phase is a third of a run: checkpoint often enough that
		// the runner.checkpoint span has samples.
		sh.ckptEvery = 5
	}
	e.chk.ok(!sim.Cfg.NoTree, "tree was silently disabled (PM mesh too coarse)")

	nu0, _ := sim.TotalMass()
	loss0 := 0.0
	if sim.VSol != nil {
		loss0 = sim.VSol.BoundaryLoss
	}

	if !e.trace {
		o, _, err := timedCosmoRun(e, sh, sim, e.seconds, "timed", nil)
		if err != nil {
			return err
		}
		e.reportEndToEnd(setups, o, sh.tailP)
		return checkCosmo(e, sim, nu0, loss0)
	}

	untraced, _, err := timedCosmoRun(e, sh, sim, e.seconds/3, "untraced", nil)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tim0 := sim.Tim
	traced, rep, err := timedCosmoRun(e, sh, sim, e.seconds/3, "traced", e.rec)
	if err != nil {
		return err
	}
	tim1 := sim.Tim
	runtime.ReadMemStats(&after)
	e.runtimeDeltas(&before, &after, rep.Steps)
	e.traceOverhead(untraced, traced)
	e.reportBenchOps(untraced, sh.tailP)

	spans := e.rec.snapshot()
	e.layerDurs("hybrid.step_ms_p50", spanDurs(spans, "hybrid.step"))
	e.layerDurs("hybrid.suggest_dt_ms_p50", spanDurs(spans, "hybrid.suggest_dt"))
	e.layer("hybrid.new_ms", ms(inst.newT), 1)
	reportRunnerSpans(e, spans, rep.Steps)

	// Exported per-part timers of the step; Tim.PM already contains
	// Tim.Moments, so it is subtracted to keep the parts disjoint.
	if total := float64(tim1.Total - tim0.Total); total > 0 {
		v := float64(tim1.Vlasov-tim0.Vlasov) / total
		tr := float64(tim1.Tree-tim0.Tree) / total
		mo := float64(tim1.Moments-tim0.Moments) / total
		pm := float64(tim1.PM-tim0.PM)/total - mo
		n := tim1.Steps - tim0.Steps
		e.layer("hybrid.tim_vlasov_frac", v, n)
		e.layer("hybrid.tim_tree_frac", tr, n)
		e.layer("hybrid.tim_pm_frac", pm, n)
		e.layer("hybrid.tim_moments_frac", mo, n)
		e.layer("hybrid.glue_frac", 1-v-tr-pm-mo, n)
	}
	if err := checkCosmo(e, sim, nu0, loss0); err != nil {
		return err
	}
	return probeCosmo(e, sh, sim)
}

// reportRunnerSpans derives the runner's own cost from a traced run: the
// self time of runner.run (its span minus the solver and checkpoint spans it
// contains) per step, and the share of the run spent writing checkpoints.
func reportRunnerSpans(e *env, spans []span, steps int) {
	self := selfTimes(spans)
	var runSelf, runTotal time.Duration
	for _, s := range spans {
		if s.Name == "runner.run" {
			runSelf += self[s.ID]
			runTotal += s.dur()
		}
	}
	if steps > 0 {
		e.layer("runner.overhead_us_per_step", us(runSelf)/float64(steps), steps)
	}
	ck := spanDurs(spans, "runner.checkpoint")
	e.layerDurs("runner.checkpoint_ms_p50", ck)
	var ckTotal time.Duration
	for _, d := range ck {
		ckTotal += d
	}
	if runTotal > 0 {
		e.layer("runner.checkpoint_stall_frac", float64(ckTotal)/float64(runTotal), len(ck))
	}
}

// checkCosmo verifies the evolved state: conservation, positivity, finite
// in-box particles, tree force accuracy, and that a checkpoint written by
// the runner reads back equal to the live state bit for bit.
func checkCosmo(e *env, sim *vlasov6d.Simulation, nu0, loss0 float64) error {
	if sim.Grid != nil {
		nu1, _ := sim.TotalMass()
		drift := math.Abs(nu1+(sim.VSol.BoundaryLoss-loss0)-nu0) / nu0
		e.chk.ok(drift <= 1e-6, "ν mass + boundary loss drifted by %.3g", drift)
		e.chk.ok(sim.Grid.MinValue() >= 0, "negative distribution function: min %g", sim.Grid.MinValue())
	}
	p := sim.Part
	inBox := true
	for d := 0; d < 3; d++ {
		for i := 0; i < p.N; i++ {
			x, v := p.Pos[d][i], p.Vel[d][i]
			if math.IsNaN(x) || math.IsNaN(v) || math.IsInf(v, 0) || x < 0 || x >= p.Box[d] {
				inBox = false
			}
		}
	}
	e.chk.ok(inBox, "particle outside [0, Box) or not finite")
	n := sim.Cfg.NPartSide
	e.chk.ok(p.N == n*n*n, "particle count %d != %d³", p.N, n)

	errs, err := treeForceErrors(sim, rand.New(rand.NewSource(e.seed)), 64)
	if err != nil {
		return err
	}
	e.chk.ok(median(errs) <= 0.02, "tree force median relative error %.3g > 2%%", median(errs))

	// One more step under a cadence-1 checkpoint: the file the runner wrote
	// must hold exactly the state the simulation is left in.
	dir := filepath.Join(e.dir, "ckpt-readback")
	rep, err := vlasov6d.Run(context.Background(), sim, 1,
		vlasov6d.WithMaxSteps(1), vlasov6d.WithCheckpoint(dir, 1))
	if err != nil {
		return err
	}
	if len(rep.Checkpoints) != 1 {
		e.chk.ok(false, "read-back step wrote %d checkpoints", len(rep.Checkpoints))
		return nil
	}
	snap, _, err := vlasov6d.ResumeLatest(dir)
	if err != nil {
		return err
	}
	e.chk.ok(snapshotEquals(snap, sim), "checkpoint read back differs from the live state")
	return os.RemoveAll(dir)
}

func snapshotEquals(snap *vlasov6d.Snapshot, sim *vlasov6d.Simulation) bool {
	if snap.A != sim.A || (snap.Grid == nil) != (sim.Grid == nil) || snap.Part.N != sim.Part.N {
		return false
	}
	if sim.Grid != nil {
		if len(snap.Grid.Data) != len(sim.Grid.Data) {
			return false
		}
		for i, v := range sim.Grid.Data {
			if math.Float32bits(snap.Grid.Data[i]) != math.Float32bits(v) {
				return false
			}
		}
	}
	for d := 0; d < 3; d++ {
		for i := 0; i < sim.Part.N; i++ {
			if snap.Part.Pos[d][i] != sim.Part.Pos[d][i] || snap.Part.Vel[d][i] != sim.Part.Vel[d][i] {
				return false
			}
		}
	}
	return true
}

// treeOptions rebuilds the tree parameters hybrid derives from its PM mesh.
func treeOptions(sim *vlasov6d.Simulation) tree.Options {
	cell := sim.Cfg.Box / float64(sim.PM.N[0])
	return tree.Options{Theta: sim.Cfg.Theta, RSplit: 1.25 * cell, Soft: cell / 20}
}

// treeForceErrors compares the tree walk against direct summation on n
// seeded particles and returns the relative errors.
func treeForceErrors(sim *vlasov6d.Simulation, rng *rand.Rand, n int) ([]float64, error) {
	opt := treeOptions(sim)
	tr, err := tree.Build(sim.Part, opt)
	if err != nil {
		return nil, err
	}
	p := sim.Part
	var errs []float64
	for k := 0; k < n; k++ {
		i := rng.Intn(p.N)
		got := tr.Accel([3]float64{p.Pos[0][i], p.Pos[1][i], p.Pos[2][i]})
		want := tree.DirectShortRange(p, i, opt.Soft, opt.RSplit)
		var diff, norm float64
		for d := 0; d < 3; d++ {
			diff += (got[d] - want[d]) * (got[d] - want[d])
			norm += want[d] * want[d]
		}
		if norm > 0 {
			errs = append(errs, math.Sqrt(diff/norm))
		}
	}
	return errs, nil
}

// probeCosmo times each layer's exported calls on the final state (clones
// where the call mutates), several repetitions each.
func probeCosmo(e *env, sh cosmoShape, sim *vlasov6d.Simulation) error {
	reps := 5
	if e.smoke {
		reps = 1
	}
	mesh := sim.PM.N
	box3 := [3]float64{sim.Cfg.Box, sim.Cfg.Box, sim.Cfg.Box}
	part := sim.Part.Clone()
	coeff := sim.Cfg.Par.PoissonCoeff(sim.A)

	// nbody: deposit, interpolate, kick+drift.
	rho := make([]float64, sim.PM.Size())
	ds, err := timeReps(reps, func() error {
		clear(rho)
		return part.CICDeposit(rho, mesh)
	})
	if err != nil {
		return err
	}
	e.layerDurs("nbody.cic_deposit_ms_p50", ds)

	// poisson: filtered solve and the three gradients.
	phi := make([]float64, sim.PM.Size())
	ds, err = timeReps(reps, func() error {
		_, err := sim.PM.SolveFiltered(rho, coeff, treeOptions(sim).RSplit, phi)
		return err
	})
	if err != nil {
		return err
	}
	e.layerDurs("poisson.solve_ms_p50", ds)
	var meshAcc [3][]float64
	ds, err = timeReps(reps, func() error { return sim.PM.AccelInto(phi, &meshAcc) })
	if err != nil {
		return err
	}
	e.layerDurs("poisson.accel_ms_p50", ds)

	var accPart [3][]float64
	for d := range accPart {
		accPart[d] = make([]float64, part.N)
	}
	ds, err = timeReps(reps, func() error {
		for d := 0; d < 3; d++ {
			if err := part.CICInterp(meshAcc[d], mesh, accPart[d]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.layerDurs("nbody.cic_interp_ms_p50", ds)
	dt := sim.SuggestDT()
	ds, err = timeReps(reps, func() error {
		if err := part.Kick(dt/2, accPart); err != nil {
			return err
		}
		part.Drift(dt, sim.A)
		return nil
	})
	if err != nil {
		return err
	}
	e.layerDurs("nbody.kick_drift_ms_p50", ds)

	// fft: one forward+inverse 3D transform at a fixed 64³.
	nfft := 64
	if e.smoke {
		nfft = 16
	}
	f3, err := fft.NewFFT3(nfft, nfft, nfft)
	if err != nil {
		return err
	}
	f3.SetWorkers(1)
	rng := rand.New(rand.NewSource(e.seed))
	data := make([]complex128, nfft*nfft*nfft)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), 0)
	}
	ds, err = timeReps(reps, func() error {
		if err := f3.Forward(data); err != nil {
			return err
		}
		return f3.Inverse(data)
	})
	if err != nil {
		return err
	}
	e.layerDurs("fft.fft3_ms_p50", ds)

	if err := probeTree(e, sim, reps); err != nil {
		return err
	}
	if err := probeSnapIO(e, sh, sim, reps); err != nil {
		return err
	}

	// ic: the two generator passes NewSimulation pays for.
	gen, err := ic.NewGenerator(sim.Cfg.Par, sim.Cfg.Box, e.seed)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := gen.CDMParticles(sim.Cfg.NPartSide, aInit); err != nil {
		return err
	}
	e.layer("ic.cdm_particles_ms", ms(time.Since(t0)), 1)

	if sim.Grid == nil {
		return nil
	}
	g := sim.Grid
	fresh, err := phase.New(g.NX, g.NY, g.NZ, g.NU, g.Box, g.UMax)
	if err != nil {
		return err
	}
	fresh.SetWorkers(1)
	t0 = time.Now()
	if err := gen.FillNeutrinoGrid(fresh, aInit); err != nil {
		return err
	}
	e.layer("ic.fill_grid_ms", ms(time.Since(t0)), 1)

	// phase: the two reductions a step takes.
	var mom *phase.Moments
	ds, _ = timeReps(reps, func() error { mom = g.ComputeMomentsInto(mom); return nil })
	e.layerDurs("phase.moments_ms_p50", ds)
	cells := float64(len(g.Data))
	e.layer("phase.moments_mcells_per_s", cells/1e6/medianDur(ds).Seconds(), len(ds))
	ds, _ = timeReps(reps, func() error { g.TotalMass(); return nil })
	e.layerDurs("phase.total_mass_ms_p50", ds)

	return probeVlasov(e, sim, box3, dt, reps)
}

// probeTree times the octree build and the all-particle walk, at one and
// two workers.
func probeTree(e *env, sim *vlasov6d.Simulation, reps int) error {
	opt := treeOptions(sim)
	var tr *tree.Tree
	ds, err := timeReps(reps, func() (err error) { tr, err = tree.Build(sim.Part, opt); return })
	if err != nil {
		return err
	}
	e.layerDurs("tree.build_ms_p50", ds)
	var acc [3][]float64
	for d := range acc {
		acc[d] = make([]float64, sim.Part.N)
	}
	walk := func(workers int) (time.Duration, int, error) {
		tr.SetWorkers(workers)
		ds, err := timeReps(reps, func() error { return tr.AccelAll(acc) })
		return medianDur(ds), len(ds), err
	}
	w1, n, err := walk(1)
	if err != nil {
		return err
	}
	w2, _, err := walk(2)
	if err != nil {
		return err
	}
	e.layer("tree.walk_ms_p50", ms(w1), n)
	e.layer("tree.walk_us_per_particle", us(w1)/float64(sim.Part.N), n)
	e.layer("tree.speedup_w2", float64(w1)/float64(w2), n)
	errs, err := treeForceErrors(sim, rand.New(rand.NewSource(e.seed)), 64)
	if err != nil {
		return err
	}
	e.layer("tree.force_rel_err_p50", median(errs), len(errs))
	return nil
}

// probeSnapIO writes the final state to a file and reads it back; restore
// is what a resume pays on top of the read.
func probeSnapIO(e *env, sh cosmoShape, sim *vlasov6d.Simulation, reps int) error {
	path := filepath.Join(e.dir, "probe.v6d")
	snap := &vlasov6d.Snapshot{A: sim.A, Time: sim.Time, Part: sim.Part, Grid: sim.Grid}
	var bytes int64
	wr, err := timeReps(reps, func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		bytes, err = vlasov6d.WriteSnapshot(f, snap)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return err
	}
	var back *vlasov6d.Snapshot
	rd, err := timeReps(reps, func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		back, err = vlasov6d.ReadSnapshot(f)
		return err
	})
	if err != nil {
		return err
	}
	mb := float64(bytes) / 1e6
	e.layerDurs("snapio.write_ms_p50", wr)
	e.layerDurs("snapio.read_ms_p50", rd)
	e.layer("snapio.write_mb_per_s", mb/medianDur(wr).Seconds(), len(wr))
	e.layer("snapio.read_mb_per_s", mb/medianDur(rd).Seconds(), len(rd))
	e.layer("snapio.bytes", float64(bytes), 1)
	t0 := time.Now()
	if _, err := vlasov6d.RestoreSimulation(sh.cfg, back, sh.opts...); err != nil {
		return err
	}
	e.layer("hybrid.restore_ms", ms(medianDur(rd)+time.Since(t0)), 1)
	return nil
}

// probeVlasov times the velocity and position sweeps on a clone of the
// final grid, with an acceleration field solved from the particle density
// on the Vlasov mesh.
func probeVlasov(e *env, sim *vlasov6d.Simulation, box3 [3]float64, dt float64, reps int) error {
	g := sim.Grid.Clone()
	g.SetWorkers(1)
	vs, err := vlasov.New(g, sim.Cfg.Scheme)
	if err != nil {
		return err
	}
	n3 := [3]int{g.NX, g.NY, g.NZ}
	pm, err := poisson.NewSolver(n3, box3)
	if err != nil {
		return err
	}
	rho := make([]float64, pm.Size())
	if err := sim.Part.CICDeposit(rho, n3); err != nil {
		return err
	}
	phi, err := pm.Solve(rho, sim.Cfg.Par.PoissonCoeff(sim.A), nil)
	if err != nil {
		return err
	}
	acc, err := pm.Accel(phi)
	if err != nil {
		return err
	}
	sweep := func(workers int) (kick, drift []time.Duration, err error) {
		vs.SetWorkers(workers)
		if kick, err = timeReps(reps, func() error { return vs.KickHalf(dt, acc) }); err != nil {
			return
		}
		drift, err = timeReps(reps, func() error { return vs.Drift(dt, sim.A) })
		return
	}
	kick, drift, err := sweep(1)
	if err != nil {
		return err
	}
	kick2, drift2, err := sweep(2)
	if err != nil {
		return err
	}
	cells := float64(len(g.Data))
	k1, d1 := medianDur(kick), medianDur(drift)
	e.layerDurs("vlasov.kick_ms_p50", kick)
	e.layerDurs("vlasov.drift_ms_p50", drift)
	// A half kick and a drift are three 1D sweeps over every cell each.
	e.layer("vlasov.kick_mcells_per_s", 3*cells/1e6/k1.Seconds(), len(kick))
	e.layer("vlasov.drift_mcells_per_s", 3*cells/1e6/d1.Seconds(), len(drift))
	// A step is two half kicks and a drift: nine sweeps, each reading and
	// writing a float32 per cell. Computed from array sizes, not measured.
	e.layer("vlasov.bytes_per_step_computed", 9*cells*8, 0)
	step1 := 2*k1 + d1
	step2 := 2*medianDur(kick2) + medianDur(drift2)
	e.layer("vlasov.speedup_w2", float64(step1)/float64(step2), len(kick2))

	vs.SetWorkers(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if err := vs.Step(dt, sim.A, acc); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	e.layer("vlasov.allocs_per_step", float64(after.Mallocs-before.Mallocs)/float64(reps), reps)

	// advect: the bare 1D scheme on the sweeps' own inputs — lines drawn
	// from the grid with the CFL numbers the sweeps give them, open
	// boundaries for the kicks and periodic for the drift — so the sweep
	// overhead is everything the solver spends around the scheme: gather,
	// scatter, loss accounting, dispatch.
	nLines := 4096
	rounds := 50
	if e.smoke {
		nLines, rounds = 64, 2
	}
	rng := rand.New(rand.NewSource(e.seed))
	nu2, ncube := g.NU[2], g.NCube()
	open := make([][]float64, nLines)
	openC := make([]float64, nLines)
	per := make([][]float64, nLines)
	perC := make([]float64, nLines)
	for k := 0; k < nLines; k++ {
		// A kick line: one row of a cell's velocity cube along the last axis.
		cell := rng.Intn(g.NCells())
		cube := g.CubeAt(cell)
		off := rng.Intn(ncube/nu2) * nu2
		open[k] = make([]float64, nu2)
		for i := range open[k] {
			open[k][i] = float64(cube[off+i])
		}
		openC[k] = acc[2][cell] * (dt / 2) / g.DU(2)
		// A drift line: one velocity element across the cells along x.
		el := rng.Intn(ncube)
		col := rng.Intn(g.NY * g.NZ)
		per[k] = make([]float64, g.NX)
		for i := range per[k] {
			per[k][i] = float64(g.Data[(i*g.NY*g.NZ+col)*ncube+el])
		}
		perC[k] = g.U(0, el/(g.NU[1]*g.NU[2])) * dt / (sim.A * sim.A * g.DX(0))
	}
	sch := advect.NewSLMPP5()
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for k, line := range open {
			if err := sch.StepOpen(line, openC[k]); err != nil {
				return err
			}
		}
	}
	openNS := float64(time.Since(t0)) / float64(rounds*nLines*nu2)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for k, line := range per {
			if err := sch.Step(line, perC[k]); err != nil {
				return err
			}
		}
	}
	perNS := float64(time.Since(t0)) / float64(rounds*nLines*g.NX)
	// Per cell of a step: six open sweeps (two half kicks) and three periodic.
	e.layer("advect.step_ns_per_cell", 6*openNS+3*perNS, rounds*nLines)
	e.layer("vlasov.sweep_overhead_frac", 1-cells*(6*openNS+3*perNS)/float64(step1), len(kick))
	return nil
}
