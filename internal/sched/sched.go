// Package sched multiplexes many runner.Run calls over a bounded worker
// pool. It is the middle of the execution model the facade exposes:
//
//	Run       — one solver, one driver loop (internal/runner);
//	Stream    — a long-lived, channel-fed scheduler: jobs are submitted
//	            while earlier ones run, dispatched by priority, retried on
//	            transient failure, and drained gracefully on Close or
//	            context cancellation. Its pool (stream.go) is the only
//	            dispatch loop in the package;
//	RunBatch  — a fixed slice of named jobs, results in job order: a client
//	            of a Stream it opens, fills in slice order, closes and
//	            collects.
//
// The paper's production campaign is not one simulation but a matrix of
// them — scheme comparisons, resolution scalings, control runs — and the
// ROADMAP's north star is a service that accepts work continuously rather
// than one hand-launched binary at a time. A Job is a solver *factory* plus
// run options; a stream accepts Jobs one Submit at a time, a batch is a
// slice of them. Either way they execute on a bounded worker pool (default
// GOMAXPROCS) under one shared context and, optionally, one shared
// wall-clock budget, with one set of semantics:
//
//   - Solvers are constructed by the job's factory on the worker that runs
//     it, never up front, so a 100-job sweep holds at most `workers` live
//     simulations in memory.
//   - Dispatch is by priority: higher Job.Priority first, submission (for a
//     batch: slice) order within a priority.
//   - Every job reaches a final Status (Queued → Running → Done / Failed /
//     Cancelled, through Retrying between attempts) and carries the
//     runner.Report of every attempt that ran. A job's end is one value: the
//     terminal Update the WithNotify callback receives is the Result (the
//     same type) a stream then delivers on its channel in completion order
//     and a batch returns in job order.
//   - Cancelling the context stops running jobs through the runner's own
//     cancellation path and reports still-queued jobs Cancelled without
//     constructing their solvers. Close stops a stream's intake and lets
//     the pool drain everything already queued.
//   - A shared wall-clock budget (WithWallClock) is a deadline for the
//     whole pool: each job starts with the remaining budget as its runner
//     wall-clock limit. Because the runner always takes at least one step
//     under a positive budget, late jobs still make forward progress after
//     the deadline — an exhausted budget degrades to one-step-per-job
//     fairness instead of starving the tail of the queue.
//   - One job failing does not abort the others (a sweep where one
//     configuration diverges should still deliver the rest); inspect each
//     Result. RunBatch's own error reports only scheduler-level problems:
//     an empty or invalid job list, or context cancellation.
//
// Retries: a job whose factory or Run call fails with an error marked
// retryable (runner.MarkRetryable, or any error implementing
// `Retryable() bool`) is re-run up to WithRetries times with doubling
// backoff (100 ms before the first retry), transitioning through Retrying
// between attempts. Deterministic failures — a diverging configuration fails
// identically every time — are never retried, and neither is cancellation.
//
// Checkpoint-aware resume: WithJobCheckpoints(dir) gives every job its own
// checkpoint directory dir/[<tenant>/]<job name> (both sanitised; see
// JobCheckpointDir) and wires the runner's checkpoint cadence and retention
// into each Run call. A job that also carries a Restore hook is
// auto-resumed: before calling New, the scheduler looks for the newest snapshot in the job's directory and hands
// it to Restore, so re-submitting a killed job (or re-running a killed
// batch) continues from its last checkpoint instead of recomputing. A
// corrupt newest snapshot is quarantined (renamed *.corrupt) and the next
// newest tried; only when no snapshot restores does the job fall back to a
// cold start through New. (Tenant, Name) must be unique after sanitisation
// among live jobs — the pair *is* the resume key, so one tenant can neither
// block nor resume from another's job of the same name.
//
// CPU budgets: WithCoreBudget makes the scheduler the owner of intra-step
// parallelism. A CoreBudget divides a fixed core count among
// the live jobs (integer shares, floor one, remainder to higher-priority /
// earlier jobs) and rebalances as the live set churns — jobs starting,
// finishing, failing, retrying. Each job's share is plumbed into its Run
// call as a runner.WithWorkerBudget lease that solvers implementing
// runner.WorkerBudgeted observe between steps, so job-level and cell-level
// parallelism compose to the machine size instead of multiplying past it.
// See budget.go for the claim/commit protocol that keeps the held shares
// within the budget while leases rebalance.
//
// Jobs combine freely with the runner's async observer pipeline
// (runner.WithAsyncObserver in a job's Opts): each job then gets its own
// bounded diagnostics queue, which drops its oldest observation rather than
// stall the step loop, so a sweep's per-job diagnostics stay off every
// worker's hot loop; its snapshots are written on the step loop. A job whose observer must see every step uses the
// synchronous runner.WithObserver instead.
package sched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vlasov6d/internal/runner"
)

// Job is one named unit of work: a solver factory, the clock target to
// drive it to, and the runner options for its Run call — what Submit takes
// one at a time and RunBatch as a slice.
type Job struct {
	// Name identifies the job in Results and progress updates. Under
	// WithJobCheckpoints it also keys the job's checkpoint directory
	// (together with Tenant), so it must be unique (after sanitisation)
	// among the tenant's live jobs sharing that root: re-submitting a Job
	// with the same Name is how a killed job resumes.
	Name string
	// New constructs the solver. It runs on the worker goroutine executing
	// the job (not at submission), so per-job memory is bounded by the
	// worker count and an expensive construction (IC generation) counts
	// against the job's share of the batch, not the caller's.
	New func() (runner.Solver, error)
	// NewBudgeted is the budget-aware form of New: under WithCoreBudget the
	// scheduler passes the job's freshly acquired core lease, so an
	// expensive construction (IC generation fans out over the phase grid)
	// can size its parallelism to the job's share instead of bursting to
	// GOMAXPROCS before the first step. Without a budget the lease is nil
	// and the factory should fall back to its default parallelism. Exactly
	// one of New and NewBudgeted must be set.
	NewBudgeted func(lease runner.WorkerLease) (runner.Solver, error)
	// Restore rebuilds the solver from a checkpoint file (optional). When
	// set and WithJobCheckpoints is active, the scheduler resumes the job
	// from the newest restorable snapshot in its directory instead of
	// calling New; a snapshot Restore rejects is quarantined and the next
	// newest tried.
	Restore func(path string) (runner.Solver, error)
	// Until is the clock target handed to runner.Run.
	Until float64
	// Priority orders dispatch: higher runs first, equal priorities run in
	// submission (for a batch: slice) order.
	Priority int
	// Tenant names the job's owner. It scopes the checkpoint key (see
	// JobCheckpointDir) and, under WithCoreBudget, tags the job's core lease
	// with a fair-share group: the budget divides cores fairly across
	// tenants before Priority orders jobs within one (see CoreBudget's
	// package comment). Empty joins the implicit default group.
	Tenant string
	// TenantCores caps the collective core share of all live jobs carrying
	// the same Tenant tag (0 = uncapped). Ignored without WithCoreBudget.
	TenantCores int
	// Retries overrides the scheduler's WithRetries policy for this job
	// (nil = use the scheduler default). A pointer so an explicit 0 —
	// "never retry this job" — is distinguishable from "no override".
	Retries *int
	// Opts are the runner options for this job's Run call. The scheduler
	// may append wall-clock and checkpoint options from its own
	// configuration.
	Opts []runner.Option
}

// validate checks the per-job invariants shared by Submit and RunBatch.
func (j *Job) validate() error {
	if (j.New == nil) == (j.NewBudgeted == nil) {
		if j.New == nil {
			return fmt.Errorf("sched: job %q has no solver factory", j.Name)
		}
		return fmt.Errorf("sched: job %q sets both New and NewBudgeted", j.Name)
	}
	if j.TenantCores < 0 {
		return fmt.Errorf("sched: job %q: negative tenant core cap %d", j.Name, j.TenantCores)
	}
	if j.Retries != nil && *j.Retries < 0 {
		return fmt.Errorf("sched: job %q: retry override %d must be non-negative", j.Name, *j.Retries)
	}
	return nil
}

// Status is the lifecycle state of a job.
type Status int

const (
	// Queued: not yet picked up by a worker.
	Queued Status = iota
	// Running: a worker is constructing or driving the solver.
	Running
	// Done: runner.Run returned without error (any stop reason).
	Done
	// Failed: the factory or runner.Run returned a non-cancellation error
	// that was not retried (not retryable, or attempts exhausted).
	Failed
	// Cancelled: the context was cancelled before or during the job.
	Cancelled
	// Retrying: the last attempt failed with a retryable error and the job
	// is backing off before its next attempt.
	Retrying
)

// Terminal reports whether the status is final: Done, Failed or Cancelled.
func (s Status) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled
}

func (s Status) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	case Retrying:
		return "retrying"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Update is one job status transition — and, when Status is terminal, the
// job's Result: the value the WithNotify callback receives last for a job is
// the very value the stream then sends on Results (and RunBatch returns).
type Update struct {
	// ID identifies the job: its position in the batch, or the submission
	// id SubmitID returned in a stream — the key a service correlates
	// transitions and completion-order results back to its own records with.
	ID int
	// Name echoes the job name.
	Name string
	// Status is the state just entered; Done, Failed or Cancelled is final.
	Status Status
	// Attempt is the 1-based attempt this transition belongs to (> 1 only
	// when retries fired; 0 for a job cancelled while still queued).
	Attempt int
	// Report is the runner report of an attempt that ran: it accompanies
	// Done and run-level failures (nil for jobs cancelled while still queued
	// or whose factory failed).
	Report *runner.Report
	// Err accompanies Failed, Retrying and (when the job was running)
	// Cancelled: the factory/run error, or the cancellation error.
	Err error
}

// Result is the terminal Update of one job. Batch results are returned in
// job order; stream results are delivered in completion order.
type Result = Update

type options struct {
	workers     int
	wall        time.Duration
	notify      func(Update)
	phaseNotify func(PhaseEvent)
	retries     int
	backoff     time.Duration
	ckptDir     string
	ckptEvery   int
	budget      int
	budgetSet   bool
}

// Option configures a RunBatch call or a Stream.
type Option func(*options)

// WithWorkers bounds the worker pool (default GOMAXPROCS; RunBatch further
// caps it at the job count).
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithWallClock gives the whole batch (or stream) one shared wall-clock
// budget. Each job starts with the budget remaining at its start time as
// its own runner wall-clock limit; once the budget is exhausted, every
// remaining job still takes at least one step (the runner's
// forward-progress guarantee), so a checkpoint-cadenced campaign can be
// resumed job by job.
func WithWallClock(budget time.Duration) Option {
	return func(o *options) { o.wall = budget }
}

// WithNotify registers a callback for job status transitions. Calls are
// serialised by the scheduler, so the callback may print or mutate shared
// state without its own locking; it must not block for long (it stalls the
// notifying worker, not the whole pool).
func WithNotify(fn func(Update)) Option {
	return func(o *options) { o.notify = fn }
}

// PhaseEvent is one completed scheduler-level phase of a job's life,
// delivered to the WithPhaseNotify callback: the latency accounting the
// Update stream cannot carry (an Update is a state *transition*; a phase is
// a measured *interval*).
//
// Phases:
//
//	"queue"    — submission to dispatch (Attempt 0)
//	"dispatch" — worker pickup to first solver step: core-lease acquisition
//	             plus solver construction or checkpoint restore, per attempt
//	"backoff"  — the retry delay between two attempts, tagged with the
//	             attempt that failed
type PhaseEvent struct {
	// Index is the job's submission id (stream) or batch position.
	Index int
	// Name echoes the job name.
	Name string
	// Phase is "queue", "dispatch" or "backoff".
	Phase string
	// Attempt is the 1-based attempt the phase belongs to (0 for "queue",
	// which precedes any attempt).
	Attempt int
	// Start and End bracket the phase in wall time.
	Start, End time.Time
}

// WithPhaseNotify registers a callback for completed scheduler phases —
// queue wait, per-attempt dispatch latency, retry backoff. Unlike
// WithNotify the calls are not serialised: fn runs on whichever worker
// goroutine finished the phase and must be safe for concurrent use and
// cheap (a histogram observation, a span append — not I/O).
func WithPhaseNotify(fn func(PhaseEvent)) Option {
	return func(o *options) { o.phaseNotify = fn }
}

// WithRetries allows each job up to n additional attempts after a failure
// that runner.IsRetryable classifies as transient (default 0: fail fast).
// Non-retryable failures and cancellation are never retried.
func WithRetries(n int) Option {
	return func(o *options) { o.retries = n }
}

// WithCoreBudget hands the scheduler ownership of intra-step parallelism: a
// CoreBudget of total cores (0 = GOMAXPROCS) is divided among the live jobs
// — integer shares, floor one, remainder to the higher-priority (then
// earlier-started) jobs — and rebalanced as jobs start, finish, fail or
// retry. Each job's share rides into its Run call as a
// runner.WithWorkerBudget lease, so a solver implementing
// runner.WorkerBudgeted resizes its intra-step worker pool between steps;
// solvers without the capability run unpinned but still hold their share in
// the accounting. The budget lives as long as its stream (for a batch: the
// RunBatch call), so the division tracks the continuously churning live-job
// set. Without this option every job defaults to
// GOMAXPROCS intra-step workers and an N-job pool oversubscribes the
// machine N-fold.
func WithCoreBudget(total int) Option {
	return func(o *options) {
		o.budget = total
		o.budgetSet = true
	}
}

// WithJobCheckpoints gives every job a private checkpoint directory
// JobCheckpointDir(dir, job.Tenant, job.Name) and appends the runner's
// WithCheckpoint (cadence from WithJobCheckpointEvery, default every 10
// steps) and WithCheckpointKeep(jobCheckpointKeep) to each job's run
// options. Jobs whose solver cannot checkpoint fail at step 0 — same as
// calling runner.WithCheckpoint directly. Combined with a Job
// Restore hook this is the kill-and-resume contract: see the package
// comment.
func WithJobCheckpoints(dir string) Option {
	return func(o *options) { o.ckptDir = dir }
}

// WithJobCheckpointEvery sets the per-job checkpoint cadence in steps used
// by WithJobCheckpoints (default 10).
func WithJobCheckpointEvery(n int) Option {
	return func(o *options) { o.ckptEvery = n }
}

// jobCheckpointKeep is how many of its newest snapshots a job's checkpoint
// directory retains under WithJobCheckpoints.
const jobCheckpointKeep = 3

// retryBackoff is the delay before a job's first retry; each further retry
// doubles it. The backoff sleep is cancellable: a context cancellation
// during backoff reports the job Cancelled. A variable only so tests can
// shorten it; buildOptions copies it once, so a stream never reads it
// while it runs.
var retryBackoff = 100 * time.Millisecond

// buildOptions applies opts over defaults and validates the result.
func buildOptions(opts []Option) (options, error) {
	o := options{ckptEvery: 10, backoff: retryBackoff}
	for _, opt := range opts {
		opt(&o)
	}
	if o.workers < 0 {
		return o, fmt.Errorf("sched: worker count %d must be non-negative", o.workers)
	}
	if o.workers == 0 {
		o.workers = runtime.GOMAXPROCS(0)
	}
	if o.wall < 0 {
		return o, fmt.Errorf("sched: wall-clock budget %v must be non-negative", o.wall)
	}
	if o.retries < 0 {
		return o, fmt.Errorf("sched: retry count %d must be non-negative", o.retries)
	}
	if o.ckptEvery < 1 {
		return o, fmt.Errorf("sched: checkpoint cadence %d must be ≥ 1 step", o.ckptEvery)
	}
	if o.budgetSet && o.budget < 0 {
		return o, fmt.Errorf("sched: core budget %d must be non-negative (0 selects GOMAXPROCS)", o.budget)
	}
	return o, nil
}

// RunBatch executes a fixed slice of jobs and returns one Result per job, in
// job order. It is a client of the stream: after validating the whole slice
// up front it opens a Stream (workers capped at the job count), submits the
// jobs in slice order — so Update.ID is the batch position —
// closes it and collects. Workers start on the first jobs while later ones
// are still being submitted; Priority orders whatever is queued at each
// pop, as for any stream client. The returned error is non-nil only for
// scheduler-level problems (invalid options or jobs, context cancellation);
// per-job failures are reported in Results.
func RunBatch(ctx context.Context, jobs []Job, opts ...Option) ([]Result, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("sched: empty batch")
	}
	seen := make(map[string]int, len(jobs))
	for i, j := range jobs {
		if err := j.validate(); err != nil {
			return nil, fmt.Errorf("sched: job %d: %w", i, err)
		}
		if o.ckptDir != "" {
			// Reject a key collision before anything runs: the stream would
			// refuse the second job only after the first had started.
			key := checkpointKey(j.Tenant, j.Name)
			if prev, dup := seen[key]; dup {
				return nil, fmt.Errorf("sched: jobs %d (%q) and %d (%q) share checkpoint key %q",
					prev, jobs[prev].Name, i, j.Name, key)
			}
			seen[key] = i
		}
	}
	o.workers = min(o.workers, len(jobs))
	s := newStream(ctx, o)
	results := make([]Result, len(jobs))
	for i, j := range jobs {
		// The stream refuses a validated job only once ctx is dead, and from
		// then on refuses every later one (so ids stay batch positions). Such
		// a job is reported exactly like one flushed from the queue.
		results[i] = Result{ID: i, Name: j.Name, Status: Cancelled}
		if _, err := s.SubmitID(j); err != nil {
			s.notify(results[i])
		}
	}
	s.Close()
	for r := range s.Results() {
		results[r.ID] = r
	}
	if err := ctx.Err(); err != nil {
		return results, fmt.Errorf("sched: batch cancelled: %w", err)
	}
	return results, nil
}

// phaseEmitter receives completed phases from the executor. A nil emitter
// disables the accounting; the stream builds one from options.phaseNotify
// plus the job's submission id.
type phaseEmitter func(phase string, attempt int, start, end time.Time)

// executeJob runs one job on the calling worker goroutine: checkpoint
// resume, the attempt, and the retry-with-backoff loop around it.
// transition receives every status change with the attempt it belongs to,
// emit (may be nil) every completed dispatch/backoff phase. A non-nil budget scopes each attempt with a core
// lease: acquired before the solver is built, released when the attempt
// ends, so a job backing off between retries holds no cores.
func executeJob(ctx context.Context, o *options, budget *CoreBudget, job Job, deadline time.Time,
	transition func(st Status, attempt int, rep *runner.Report, err error), emit phaseEmitter) {
	if ctx.Err() != nil {
		transition(Cancelled, 0, nil, nil)
		return
	}
	retries := o.retries
	if job.Retries != nil {
		retries = *job.Retries
	}
	for attempt := 1; ; attempt++ {
		transition(Running, attempt, nil, nil)
		rep, err := attemptJob(ctx, o, budget, job, deadline, attempt, emit)
		switch {
		case err == nil:
			transition(Done, attempt, rep, nil)
			return
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			transition(Cancelled, attempt, rep, err)
			return
		case attempt <= retries && runner.IsRetryable(err):
			transition(Retrying, attempt, rep, err)
			// Doubling backoff, cancellable: a job killed during its
			// backoff reports Cancelled like one killed mid-run.
			backoffStart := time.Now()
			if !sleepCtx(ctx, retryDelay(o.backoff, attempt)) {
				transition(Cancelled, attempt, nil,
					fmt.Errorf("sched: job %q cancelled during retry backoff: %w", job.Name, ctx.Err()))
				return
			}
			if emit != nil {
				emit("backoff", attempt, backoffStart, time.Now())
			}
		default:
			transition(Failed, attempt, rep, err)
			return
		}
	}
}

// attemptJob performs one attempt: build (or resume) the solver and drive
// it with the job's options plus the scheduler's checkpoint, core-lease and
// wall-clock wiring. The "dispatch" phase it emits spans worker pickup to
// the hand-off into runner.Run — core-lease acquisition (which can park the
// worker on a saturated budget) plus solver construction or checkpoint
// restore, the two latencies between "Running" and actual stepping.
func attemptJob(ctx context.Context, o *options, budget *CoreBudget, job Job, deadline time.Time,
	attempt int, emit phaseEmitter) (*runner.Report, error) {
	dispatchStart := time.Now()
	var lease *Lease
	if budget != nil {
		// Acquire before the factory runs, so a heavy construction (IC
		// generation) does not start until the job holds cores; the wait is
		// cancellable and bounded by one step of a running job. The job's
		// priority and tenant tag ride into the allocator here.
		l, err := budget.AcquireClaim(ctx, Claim{
			Tenant:      job.Tenant,
			TenantCores: job.TenantCores,
			Priority:    job.Priority,
		})
		if err != nil {
			return nil, err
		}
		lease = l
		defer lease.Release()
	}
	solver, resumed, err := buildSolver(o, job, lease)
	if err != nil {
		return nil, fmt.Errorf("sched: job %q: factory: %w", job.Name, err)
	}
	if resumed && solver.Clock() >= job.Until {
		// The newest snapshot is already at (or past) the target: the job
		// finished before the kill and there is nothing left to run.
		if emit != nil {
			emit("dispatch", attempt, dispatchStart, time.Now())
		}
		return &runner.Report{Clock: solver.Clock(), Reason: runner.ReasonUntil}, nil
	}
	// Append scheduler-level options to a copy so a retry (or a re-run of
	// the same Job value) never sees the previous attempt's appends.
	opts := job.Opts[:len(job.Opts):len(job.Opts)]
	if lease != nil {
		opts = append(opts, runner.WithWorkerBudget(lease))
	}
	if o.ckptDir != "" {
		opts = append(opts, runner.WithCheckpoint(JobCheckpointDir(o.ckptDir, job.Tenant, job.Name), o.ckptEvery))
		opts = append(opts, runner.WithCheckpointKeep(jobCheckpointKeep))
	}
	if !deadline.IsZero() {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			// Budget exhausted before this job started: hand the runner the
			// smallest positive budget, which its forward-progress guarantee
			// turns into exactly one step — fairness for the queue's tail.
			remaining = time.Nanosecond
		}
		opts = append(opts, runner.WithWallClock(remaining))
	}
	if emit != nil {
		emit("dispatch", attempt, dispatchStart, time.Now())
	}
	return runner.Run(ctx, solver, job.Until, opts...)
}

// buildSolver resolves the job's solver: the newest restorable checkpoint
// when resume is wired, the cold factory otherwise. Corrupt snapshots are
// quarantined (renamed *.corrupt) so one bad file — a crash mid-rename, a
// truncated disk — cannot wedge a job into failing every resume forever.
// Quarantine is reserved for files that *read* but do not restore: a
// snapshot that cannot even be read (the checkpoint volume briefly
// unavailable) fails the attempt with a retryable error instead, so
// transient I/O never sidelines valid snapshots or silently discards a
// job's progress through a cold start. A non-nil lease (the job's already
// acquired core share) is handed to a NewBudgeted factory so even the cold
// start constructs within the job's budget.
func buildSolver(o *options, job Job, lease *Lease) (s runner.Solver, resumed bool, err error) {
	if o.ckptDir != "" && job.Restore != nil {
		ckpts, err := runner.ListCheckpoints(JobCheckpointDir(o.ckptDir, job.Tenant, job.Name))
		if err == nil {
			for i := len(ckpts) - 1; i >= 0; i-- {
				if err := probeReadable(ckpts[i]); err != nil {
					return nil, false, runner.MarkRetryable(
						fmt.Errorf("checkpoint %s unreadable: %w", ckpts[i], err))
				}
				s, rerr := job.Restore(ckpts[i])
				if rerr == nil {
					return s, true, nil
				}
				os.Rename(ckpts[i], ckpts[i]+".corrupt")
			}
		}
	}
	if job.NewBudgeted != nil {
		// An interface holding a nil *Lease is not a nil interface; pass
		// a true nil so unbudgeted factories can test `lease == nil`.
		if lease == nil {
			return coldBuild(job.NewBudgeted(nil))
		}
		return coldBuild(job.NewBudgeted(lease))
	}
	return coldBuild(job.New())
}

// coldBuild adapts a factory return to buildSolver's three-value shape.
func coldBuild(s runner.Solver, err error) (runner.Solver, bool, error) {
	return s, false, err
}

// probeReadable distinguishes "cannot read right now" (transient I/O, do
// not quarantine) from "reads but does not decode" (corrupt, quarantine).
func probeReadable(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.Read(b[:]); err != nil && err != io.EOF {
		return err
	}
	return nil
}

// checkpointKey is a job's resume key: its checkpoint directory relative to
// the WithJobCheckpoints root, [<tenant>/]<name> with both elements
// sanitised. The tenant scopes the name so two tenants' jobs of one name
// neither collide while live nor resume from each other's snapshots; an
// untenanted job keeps the flat layout.
func checkpointKey(tenant, name string) string {
	key := sanitizeJobName(name)
	if tenant != "" {
		key = filepath.Join(sanitizeJobName(tenant), key)
	}
	return key
}

// JobCheckpointDir returns the per-job checkpoint directory the scheduler
// derives under root for a job's (Tenant, Name) — the WithJobCheckpoints
// layout, so a service can list and serve a job's snapshot artifacts
// without re-implementing the key.
func JobCheckpointDir(root, tenant, name string) string {
	return filepath.Join(root, checkpointKey(tenant, name))
}

// sanitizeJobName maps a job (or tenant) name to a safe single path element: anything
// outside [A-Za-z0-9._-] becomes '_', and an empty name becomes "job".
func sanitizeJobName(name string) string {
	if name == "" {
		return "job"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, name)
}

// maxRetryBackoff caps the doubling: past it every further retry waits the
// same bounded interval instead of minutes-to-overflow.
const maxRetryBackoff = time.Minute

// retryDelay returns the backoff before retrying after the given 1-based
// failed attempt: base doubled per prior failure, clamped to
// maxRetryBackoff (the clamp also absorbs shift overflow at high attempt
// counts — backoff must never collapse to a hot loop). A zero base stays
// zero: an explicit no-delay policy.
func retryDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 30 {
		shift = 30
	}
	d := base << shift
	if d <= 0 || d > maxRetryBackoff {
		return maxRetryBackoff
	}
	return d
}

// sleepCtx sleeps for d unless ctx is cancelled first; it reports whether
// the full sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
