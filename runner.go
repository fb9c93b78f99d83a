// The unified Runner API: one driver loop — Run — shared by every solver
// the facade exposes. The hybrid Vlasov/N-body simulation, its pure N-body
// and ν-particle control modes, and the 1D1V plasma solver all implement
// Solver, so a production service schedules any workload through the same
// call with uniform cancellation, wall-clock budgets, per-step observers
// and checkpoint cadence. See internal/runner for the driver itself.
//
// Execution scales through three layers, each a client of the one below:
//
//   - Run drives one solver: one driver loop with cancellation, budgets,
//     observers and a checkpoint cadence.
//   - Stream (NewStream / Submit / Close / Results; internal/sched) is the
//     scheduler: a bounded worker pool under a shared context and a shared
//     wall-clock budget that accepts named jobs continuously, dispatches
//     them by priority (higher first, FIFO within a priority), retries
//     transient failures with doubling backoff, and drains gracefully on
//     Close or context cancellation.
//   - RunBatch is the fixed-slice form — parameter sweeps, scheme
//     comparisons, control runs: it opens a Stream, submits the slice in
//     order, closes it and returns the results in job order. One dispatch
//     loop, one set of semantics.
//
// Checkpoint-resume contract: WithJobCheckpoints(dir) keys a private
// checkpoint directory under dir by each job's sanitised (Tenant, Name)
// and wires the runner's checkpoint cadence and retention into every
// run. A job carrying a Restore hook auto-resumes from the newest snapshot
// in its directory — killing a campaign and re-submitting the same job
// names continues from the last checkpoints instead of recomputing. A
// corrupt newest snapshot is quarantined (renamed *.corrupt) and the next
// newest tried; a cold start through the factory is the last resort. The
// job name is the resume key, so names must be unique per checkpoint root
// (per tenant, for jobs that carry one).
//
// Orthogonally, WithAsyncObserver (internal/runner) moves diagnostics
// delivery and checkpoint I/O off the hot step loop onto a buffered
// pipeline, so the solver waits on a slow observer or a disk write only
// once the buffer is full.
package vlasov6d

import (
	"context"
	"fmt"
	"os"
	"time"

	"vlasov6d/internal/runner"
	"vlasov6d/internal/sched"
)

// Solver is the single run-loop contract: step by dt, suggest a stable dt,
// expose a run coordinate ("clock") and a diagnostics summary. Implemented
// by *Simulation (clock = scale factor) and *PlasmaSolver (clock = plasma
// time).
type Solver = runner.Solver

// RunDiagnostics is the uniform per-step health summary a Solver reports.
type RunDiagnostics = runner.Diagnostics

// RunReport summarises a finished (or aborted) run; Run always returns one,
// even alongside an error, so partial progress is visible.
type RunReport = runner.Report

// RunOption configures a Run call.
type RunOption = runner.Option

// The stop reasons a RunReport can carry.
const (
	ReasonNone      = runner.ReasonNone
	ReasonUntil     = runner.ReasonUntil
	ReasonMaxSteps  = runner.ReasonMaxSteps
	ReasonWallClock = runner.ReasonWallClock
)

// Run drives solver until its clock reaches `until` (a target scale factor
// for cosmological runs, a target time for plasma runs), a step or
// wall-clock budget runs out, or ctx is cancelled. Cancellation returns a
// partial-progress error wrapping ctx.Err(). A solver already at `until` is a
// finished run: no step is taken, the report says ReasonUntil, and
// WithCheckpoint still writes one snapshot of the final state. *Simulation
// and *PlasmaSolver leave the closing half kick of a step owed to the next
// one; Run settles it (Synchronize) on every exit, so the state found after
// Run is the kick-drift-kick state, as is every snapshot.
func Run(ctx context.Context, solver Solver, until float64, opts ...RunOption) (*RunReport, error) {
	return runner.Run(ctx, solver, until, opts...)
}

// WithMaxSteps caps the run at n steps (0 = unlimited).
func WithMaxSteps(n int) RunOption { return runner.WithMaxSteps(n) }

// WithWallClock stops the run once the elapsed wall-clock time reaches
// budget; at least one step is always taken.
func WithWallClock(budget time.Duration) RunOption { return runner.WithWallClock(budget) }

// WithObserver invokes obs after every completed step; a non-nil error
// aborts the run with that error. Between steps the solver's Diagnostics
// (masses, boundary loss, field energy) are at the clock while velocities
// lag by the owed half kick; an observer that reads velocity moments calls
// the solver's Synchronize first.
func WithObserver(obs func(step int, s Solver) error) RunOption {
	return runner.WithObserver(obs)
}

// WithCheckpoint writes a snapshot into dir every everyN completed steps
// through the snapshot format of WriteSnapshot/ReadSnapshot; resume with
// RestoreSimulation (the ν-particle baseline checkpoints through snapio
// format v2). The solver must support checkpointing (*Simulation does).
func WithCheckpoint(dir string, everyN int) RunOption { return runner.WithCheckpoint(dir, everyN) }

// WithCheckpointKeep prunes the checkpoint directory to the newest n
// snapshots after every write (0 keeps everything).
func WithCheckpointKeep(n int) RunOption { return runner.WithCheckpointKeep(n) }

// AsyncRunObserver is the off-thread diagnostics callback of
// WithAsyncObserver: it receives a value snapshot of the solver's
// Diagnostics, never the live solver, so it can run concurrently with the
// next steps.
type AsyncRunObserver = runner.AsyncObserver

// AsyncOption tunes the async observer pipeline.
type AsyncOption = runner.AsyncOption

// WithAsyncObserver delivers per-step diagnostics (and, for solvers that
// support state capture, checkpoint I/O) through a buffered pipeline off
// the hot step loop. obs may be nil to route only checkpoint traffic.
func WithAsyncObserver(obs AsyncRunObserver, opts ...AsyncOption) RunOption {
	return runner.WithAsyncObserver(obs, opts...)
}

// WithAsyncBuffer sets the pipeline queue capacity (default
// runner.DefaultAsyncBuffer).
func WithAsyncBuffer(n int) AsyncOption { return runner.WithAsyncBuffer(n) }

// ResumeLatest reads the newest checkpoint in dir and returns the snapshot
// together with the file it came from; rebuild the simulation with
// RestoreSimulation.
func ResumeLatest(dir string) (*Snapshot, string, error) {
	path, err := runner.LatestCheckpoint(dir)
	if err != nil {
		return nil, "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	snap, err := ReadSnapshot(f)
	if err != nil {
		return nil, "", fmt.Errorf("vlasov6d: resume from %s: %w", path, err)
	}
	return snap, path, nil
}

// BatchJob is one named unit of scheduler work: a solver factory, a clock
// target, and per-job run options. The factory runs on the worker that
// executes the job, so at most `workers` solvers are live at once.
type BatchJob = sched.Job

// BatchResult is the outcome of one job — its terminal BatchUpdate, the same
// type: in job order from RunBatch, in completion order from a Stream.
type BatchResult = sched.Result

// BatchUpdate is one job status transition, delivered to WithBatchNotify.
type BatchUpdate = sched.Update

// The batch job states.
const (
	JobQueued    = sched.Queued
	JobRunning   = sched.Running
	JobDone      = sched.Done
	JobFailed    = sched.Failed
	JobCancelled = sched.Cancelled
	JobRetrying  = sched.Retrying
)

// BatchOption configures a RunBatch call or a Stream.
type BatchOption = sched.Option

// RunBatch executes jobs through a Stream of its own (default GOMAXPROCS
// workers, capped at the job count) under one shared context, dispatching
// by BatchJob.Priority then slice order and returning one result per job in
// job order. Per-job failures are reported in the results, not as the batch
// error.
func RunBatch(ctx context.Context, jobs []BatchJob, opts ...BatchOption) ([]BatchResult, error) {
	return sched.RunBatch(ctx, jobs, opts...)
}

// WithBatchWorkers bounds the batch worker pool (default GOMAXPROCS,
// capped at the job count).
func WithBatchWorkers(n int) BatchOption { return sched.WithWorkers(n) }

// WithBatchWallClock gives the whole batch one shared wall-clock budget;
// once exhausted, every remaining job still takes at least one step (the
// runner's forward-progress guarantee), so nothing starves.
func WithBatchWallClock(budget time.Duration) BatchOption { return sched.WithWallClock(budget) }

// WithBatchNotify registers a serialised callback for job status
// transitions — the hook progress displays hang off.
func WithBatchNotify(fn func(BatchUpdate)) BatchOption { return sched.WithNotify(fn) }

// WithBatchRetries allows each job up to n extra attempts after a failure
// marked transient (runner.MarkRetryable; default 0: fail fast), the first
// after 100 ms and each further one after twice the last delay.
func WithBatchRetries(n int) BatchOption { return sched.WithRetries(n) }

// WithBatchCoreBudget hands the scheduler ownership of
// intra-step parallelism: total cores (0 = GOMAXPROCS) are divided among
// the live jobs and rebalanced as jobs start, finish, fail or retry, each
// job's share plumbed into its Run call as a worker-budget lease. This is
// what lets job-level and cell-level parallelism compose to the machine
// size instead of multiplying past it (N jobs × GOMAXPROCS workers).
func WithBatchCoreBudget(total int) BatchOption { return sched.WithCoreBudget(total) }

// WithJobCheckpoints gives every job a private checkpoint directory under
// dir keyed by its sanitised (tenant and) name and wires checkpoint cadence
// and retention (the newest 3 snapshots) into each run; jobs with a Restore
// hook auto-resume from their newest snapshot. See the package comment for
// the full contract.
func WithJobCheckpoints(dir string) BatchOption { return sched.WithJobCheckpoints(dir) }

// WithJobCheckpointEvery sets the per-job checkpoint cadence in steps used
// by WithJobCheckpoints (default 10).
func WithJobCheckpointEvery(n int) BatchOption { return sched.WithJobCheckpointEvery(n) }

// Stream is the long-lived, channel-fed scheduler: Submit jobs while
// earlier ones run, dispatched by priority with retries and checkpoint
// resume; see internal/sched for the full contract.
type Stream = sched.Stream

// NewStream starts a stream scheduler on a worker pool (default GOMAXPROCS
// workers); Close it to drain, or cancel ctx to stop.
func NewStream(ctx context.Context, opts ...BatchOption) (*Stream, error) {
	return sched.NewStream(ctx, opts...)
}

// Compile-time checks: every advertised workload drives through Run, and
// both the hybrid simulation and the plasma solver support the full
// checkpoint surface (snapshots, async capture) — the latter is what makes
// scheduler-level resume work for sweep campaigns. Both leave a half kick
// owed between steps; were Synchronize renamed, Run would silently stop
// settling it on exit.
var (
	_ Solver                    = (*Simulation)(nil)
	_ Solver                    = (*PlasmaSolver)(nil)
	_ runner.DTClamper          = (*Simulation)(nil)
	_ runner.Checkpointer       = (*Simulation)(nil)
	_ runner.CheckpointCapturer = (*Simulation)(nil)
	_ runner.Checkpointer       = (*PlasmaSolver)(nil)
	_ runner.CheckpointCapturer = (*PlasmaSolver)(nil)
	_ runner.WorkerBudgeted     = (*Simulation)(nil)
	_ runner.WorkerBudgeted     = (*PlasmaSolver)(nil)
	_ runner.Synchronizer       = (*Simulation)(nil)
	_ runner.Synchronizer       = (*PlasmaSolver)(nil)
)
