package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vlasov6d"
	"vlasov6d/internal/analysis"
	"vlasov6d/internal/runner"
)

// landauShape is the golden Landau-damping problem (k = 0.5, vmax = 8,
// SL-MPP5) at a fixed grid; only the perturbation amplitudes vary with the
// seed.
type landauShape struct {
	nx, nv    int
	k, vmax   float64
	until     float64
	ckptEvery int
	jobs      int     // jobs offered to one batch; the wall-clock budget decides how many finish
	gammaTol  float64 // |γ−γ_theory|/|γ_theory| a finished job must meet
}

func newLandauShape(e *env) landauShape {
	s := landauShape{nx: 64, nv: 256, k: 0.5, vmax: 8, until: 25, ckptEvery: 200, jobs: 16, gammaTol: 0.02}
	if e.smoke {
		// Coarse and short: the fit is exercised, not gated.
		s.nx, s.nv, s.until, s.ckptEvery, s.jobs, s.gammaTol = 16, 64, 12, 20, 64, 0.5
	}
	return s
}

func (s landauShape) newSolver(alpha float64) (*vlasov6d.PlasmaSolver, error) {
	p, err := vlasov6d.NewPlasmaSolverWithScheme(s.nx, s.nv, 2*math.Pi/s.k, s.vmax, "slmpp5")
	if err != nil {
		return nil, err
	}
	p.LandauInit(alpha, s.k, 1)
	return p, nil
}

// landauTailP is the workload's tail percentile: thousands of steps in a
// phase leave p99 with tens of samples beyond it.
const landauTailP = 99

// landauJob is one job's outcome as its observer saw it.
type landauJob struct {
	alpha       float64
	fit         analysis.DecayFit
	mass0, mass float64
	steps       int
}

// landauBatch is the result of one timed batch.
type landauBatch struct {
	opStats
	steps    int
	finished []float64 // γ relative error of every job that reached `until`
	runWall  time.Duration
}

// timedLandauBatch offers sh.jobs Landau jobs to vlasov6d.RunBatch under a
// shared wall-clock budget d: one batch worker, one core, per-job
// checkpoints, and a synchronous observer feeding the decay fit. Jobs run
// one after another until the budget is spent; the rest take the single
// step the scheduler guarantees. An op is one step: the interval between
// two observer calls.
func timedLandauBatch(e *env, sh landauShape, d time.Duration, tag string, rec *recorder) (landauBatch, error) {
	rng := rand.New(rand.NewSource(e.seed))
	state := make([]*landauJob, sh.jobs)
	jobs := make([]vlasov6d.BatchJob, sh.jobs)
	var ops []time.Duration
	var last time.Time
	runIDs := make([]int64, sh.jobs)
	runStart := make([]time.Time, sh.jobs)
	for i := range jobs {
		i := i
		st := &landauJob{alpha: 0.008 + 0.004*rng.Float64()}
		state[i] = st
		name := fmt.Sprintf("landau-s%d-%s-%02d", e.seed, tag, i)
		observe := func(_ int, s vlasov6d.Solver) error {
			t0 := time.Now()
			ops = append(ops, t0.Sub(last))
			dg := s.Diagnostics()
			st.fit.Add(dg.Time, dg.Extra["field_energy"])
			if st.steps == 0 {
				st.mass0 = dg.Mass
			}
			st.mass = dg.Mass
			st.steps++
			last = time.Now()
			rec.add(name, "bench.observer", runIDs[i], t0, last)
			return nil
		}
		opts := []vlasov6d.RunOption{vlasov6d.WithObserver(observe)}
		if rec != nil {
			opts = append(opts, runner.WithCheckpointTimer(func(_ float64, d time.Duration) {
				now := time.Now()
				rec.add(name, "runner.checkpoint", runIDs[i], now.Add(-d), now)
			}))
		}
		jobs[i] = vlasov6d.BatchJob{
			Name:  name,
			Until: sh.until,
			Opts:  opts,
			New: func() (vlasov6d.Solver, error) {
				p, err := sh.newSolver(st.alpha)
				if err != nil {
					return nil, err
				}
				last = time.Now()
				if rec == nil {
					return p, nil
				}
				runIDs[i] = rec.reserve()
				runStart[i] = last
				return &tracedSolver{Solver: p, rec: rec, run: name, parent: runIDs[i], layer: "plasma"}, nil
			},
		}
	}
	start := time.Now()
	results, err := vlasov6d.RunBatch(context.Background(), jobs,
		vlasov6d.WithBatchWorkers(1),
		vlasov6d.WithBatchCoreBudget(1),
		vlasov6d.WithJobCheckpoints(filepath.Join(e.dir, "ckpt-"+tag)),
		vlasov6d.WithJobCheckpointEvery(sh.ckptEvery),
		vlasov6d.WithBatchWallClock(d))
	wall := time.Since(start)
	if err != nil {
		return landauBatch{}, err
	}
	out := landauBatch{opStats: opStats{ops: ops, wall: wall}}
	theory := vlasov6d.LandauDampingRate(sh.k, 1)
	for i, r := range results {
		st := state[i]
		if r.Status != vlasov6d.JobDone || r.Report == nil {
			e.chk.ok(false, "%s: status %v: %v", r.Name, r.Status, r.Err)
			continue
		}
		out.steps += r.Report.Steps
		out.runWall += r.Report.Wall
		if rec != nil {
			// The runner's own span, placed from its report: it starts when
			// the factory hands the solver over and lasts Report.Wall.
			rec.addAs(runIDs[i], r.Name, "runner.run", 0, runStart[i], runStart[i].Add(r.Report.Wall))
		}
		drift := math.Abs(st.mass-st.mass0) / st.mass0
		switch r.Report.Reason {
		case vlasov6d.ReasonUntil:
			relErr := math.Abs(st.fit.Gamma()-theory) / math.Abs(theory)
			e.chk.ok(st.steps == r.Report.Steps && st.fit.Peaks() >= 3 && relErr <= sh.gammaTol && drift <= 1e-9,
				"%s: %d/%d steps observed, %d peaks, γ rel err %.3g (tol %g), mass drift %.3g",
				r.Name, st.steps, r.Report.Steps, st.fit.Peaks(), relErr, sh.gammaTol, drift)
			out.finished = append(out.finished, relErr)
		case vlasov6d.ReasonWallClock:
			e.chk.ok(st.steps == r.Report.Steps && drift <= 1e-9,
				"%s: %d/%d steps observed, mass drift %.3g", r.Name, st.steps, r.Report.Steps, drift)
		default:
			e.chk.ok(false, "%s: stop reason %v", r.Name, r.Report.Reason)
		}
	}
	e.chk.ok(out.steps == len(ops), "%s: %d steps reported, %d observed", tag, out.steps, len(ops))
	return out, nil
}

// setupLandau is construction to the first timed op: the checkpoint root,
// a scheduler, a solver built by its factory, and that solver's first step.
func setupLandau(e *env, sh landauShape, rep int) error {
	root := filepath.Join(e.dir, fmt.Sprintf("setup-%d", rep))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	res, err := vlasov6d.RunBatch(context.Background(), []vlasov6d.BatchJob{{
		Name:  "warm",
		Until: sh.until,
		Opts:  []vlasov6d.RunOption{vlasov6d.WithMaxSteps(1)},
		New:   func() (vlasov6d.Solver, error) { return sh.newSolver(0.01) },
	}}, vlasov6d.WithBatchWorkers(1), vlasov6d.WithBatchCoreBudget(1), vlasov6d.WithJobCheckpoints(root))
	if err != nil {
		return err
	}
	if res[0].Status != vlasov6d.JobDone {
		return fmt.Errorf("landau set-up job: %v: %v", res[0].Status, res[0].Err)
	}
	return nil
}

// runLandau is the landau_batch workload.
func runLandau(e *env) error {
	sh := newLandauShape(e)
	// Set-up is a few milliseconds, so it is repeated for a second and the
	// median taken.
	_, setups, err := repeatSetup(5, 200, time.Second,
		func(rep int) (struct{}, error) { return struct{}{}, setupLandau(e, sh, rep) }, func(struct{}) {})
	if err != nil {
		return err
	}
	if !e.trace {
		b, err := timedLandauBatch(e, sh, e.seconds, "timed", nil)
		if err != nil {
			return err
		}
		if !e.smoke {
			// At full size a job takes a third of a run; at smoke size on a
			// slow or instrumented build the fraction of a second may not
			// hold one, and that says nothing about the program.
			e.chk.ok(len(b.finished) >= 1, "no Landau job reached t = %g inside %v", sh.until, e.seconds)
		}
		e.reportEndToEnd(setups, b.opStats, landauTailP)
		return nil
	}

	untraced, err := timedLandauBatch(e, sh, e.seconds/3, "untraced", nil)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	traced, err := timedLandauBatch(e, sh, e.seconds/3, "traced", e.rec)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	e.runtimeDeltas(&before, &after, traced.steps)
	e.traceOverhead(untraced.opStats, traced.opStats)
	e.reportBenchOps(untraced.opStats, landauTailP)

	spans := e.rec.snapshot()
	e.layerDurs("plasma.step_us_p50", spanDurs(spans, "plasma.step"))
	e.layerDurs("plasma.suggest_dt_us_p50", spanDurs(spans, "plasma.suggest_dt"))
	reportRunnerSpans(e, spans, traced.steps)
	e.layer("sched.batch_overhead_ms", ms(traced.wall-traced.runWall), sh.jobs)
	if errs := append(untraced.finished, traced.finished...); len(errs) > 0 {
		e.layer("plasma.gamma_rel_err", median(errs), len(errs))
	}
	if _, err := probePlasma(e, sh); err != nil {
		return err
	}
	return probeSched(e)
}

// probePlasma times the solver's exported phases on a fresh Landau state and
// returns the median one-worker step.
func probePlasma(e *env, sh landauShape) (time.Duration, error) {
	reps := 200
	if e.smoke {
		reps = 5
	}
	p, err := sh.newSolver(0.01)
	if err != nil {
		return 0, err
	}
	p.SetWorkers(1)
	dt := p.SuggestDT()
	step := func() error { return p.Step(dt) }
	s1, err := timeReps(reps, step)
	if err != nil {
		return 0, err
	}
	e.layer("plasma.mcells_per_s", float64(sh.nx*sh.nv)/1e6/medianDur(s1).Seconds(), len(s1))
	ds, err := timeReps(reps, func() error { return p.DriftStep(dt) })
	if err != nil {
		return 0, err
	}
	e.layerDurs("plasma.drift_us_p50", ds)
	ds, err = timeReps(reps, func() error { return p.KickStep(dt / 2) })
	if err != nil {
		return 0, err
	}
	e.layerDurs("plasma.kick_us_p50", ds)
	ds, _ = timeReps(reps, func() error { p.ElectricField(); return nil })
	e.layerDurs("plasma.field_us_p50", ds)
	p.SetWorkers(2)
	s2, err := timeReps(reps, step)
	if err != nil {
		return 0, err
	}
	e.layer("plasma.speedup_w2", float64(medianDur(s1))/float64(medianDur(s2)), len(s2))

	path := filepath.Join(e.dir, "plasma-probe.v6d")
	ioReps := max(reps/10, 1)
	ds, err = timeReps(ioReps, func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		_, err = p.Checkpoint(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	e.layerDurs("plasma.checkpoint_ms_p50", ds)
	ds, err = timeReps(ioReps, func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = vlasov6d.RestorePlasmaSolver(f)
		return err
	})
	if err != nil {
		return 0, err
	}
	e.layerDurs("plasma.restore_ms_p50", ds)
	return medianDur(s1), nil
}

// stubSolver finishes in one step: what is left of a job's latency is the
// scheduler and the runner.
type stubSolver struct{ clock float64 }

func (s *stubSolver) Step(dt float64) error { s.clock += dt; return nil }
func (s *stubSolver) SuggestDT() float64    { return 1 }
func (s *stubSolver) Clock() float64        { return s.clock }
func (s *stubSolver) Diagnostics() vlasov6d.RunDiagnostics {
	return vlasov6d.RunDiagnostics{Clock: s.clock}
}

func stubJob(i int) vlasov6d.BatchJob {
	return vlasov6d.BatchJob{
		Name:  fmt.Sprintf("stub-%d", i),
		Until: 1,
		New:   func() (vlasov6d.Solver, error) { return &stubSolver{}, nil },
	}
}

// probeSched times the two scheduler layers over one-step stub jobs.
func probeSched(e *env) error {
	n := 2000
	if e.smoke {
		n = 50
	}
	jobs := make([]vlasov6d.BatchJob, n)
	for i := range jobs {
		jobs[i] = stubJob(i)
	}
	t0 := time.Now()
	res, err := vlasov6d.RunBatch(context.Background(), jobs, vlasov6d.WithBatchWorkers(1))
	if err != nil {
		return err
	}
	e.layer("sched.stub_jobs_per_s", float64(len(res))/time.Since(t0).Seconds(), len(res))

	// Stream: submit one job, wait for its result; the round trip is the
	// dispatch latency a service job pays inside the scheduler.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := vlasov6d.NewStream(ctx, vlasov6d.WithBatchWorkers(1))
	if err != nil {
		return err
	}
	ds, err := timeReps(n, func() error {
		if err := st.Submit(stubJob(0)); err != nil {
			return err
		}
		if r := <-st.Results(); r.Status != vlasov6d.JobDone {
			return fmt.Errorf("stub stream job: %v: %v", r.Status, r.Err)
		}
		return nil
	})
	st.Close()
	for range st.Results() {
	}
	if err != nil {
		return err
	}
	e.layerDurs("sched.dispatch_us_p50", ds)
	return nil
}
