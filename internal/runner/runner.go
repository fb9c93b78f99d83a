// Package runner is the single driver loop every solver in this repository
// runs under. The paper's production runs (Yoshikawa, Tanaka & Yoshida,
// SC '21) are long-lived jobs with a fixed cadence of diagnostics and
// checkpoints; this package factors that loop out of the individual solvers
// so the hybrid Vlasov/N-body simulation, the 1D1V plasma solver and the
// pure N-body / ν-particle control runs all execute through one Run call
// with uniform cancellation, wall-clock budgeting, per-step observation and
// checkpointing.
//
// The contract is deliberately small: a Solver steps itself by dt, suggests
// its own stable dt, and reports a run coordinate ("clock") that Run drives
// towards the caller's target. Capabilities beyond that — clamping dt in a
// clock that is not the stepping coordinate, writing restorable snapshots —
// are optional interfaces the driver discovers at run time.
//
// One of them changes what an observer sees. A split-operator solver may
// leave the closing half kick of a step owed to the opening kick of the next
// (Synchronizer): between steps its positions, densities, masses and field
// energies are those of the clock, its velocities half a kick behind. Run
// settles the debt on every exit, and such a solver settles it itself before
// every snapshot, so callers of Run and readers of checkpoints never see the
// difference; an Observer does (see there).
package runner

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Diagnostics is the uniform per-step health summary a Solver exposes to
// observers: enough to log progress and watch conservation without knowing
// which solver is running.
//
// A Diagnostics is a value snapshot: implementations must return freshly
// built values (in particular a fresh Extra map) that never alias solver
// state mutated by later Steps, so async observers can read them from
// another goroutine while the solver keeps stepping.
type Diagnostics struct {
	// Clock is the solver's run coordinate — the value Run drives towards
	// its target: scale factor a for the cosmological solvers, plasma time
	// ω_p·t for the 1D1V solver.
	Clock float64
	// Time is the solver's internal time coordinate (cosmic time in internal
	// units for the hybrid run; identical to Clock for the plasma solver).
	Time float64
	// Mass is the conserved total mass, the first invariant every Vlasov
	// solver is judged by.
	Mass float64
	// Extra carries solver-specific scalars (redshift, field energy,
	// boundary loss, …) keyed by short snake_case names.
	Extra map[string]float64
}

// Solver is the contract every workload implements to run under Run.
type Solver interface {
	// Step advances the solver by dt in its stepping coordinate.
	Step(dt float64) error
	// SuggestDT returns a stable time step for the current state (CFL
	// conditions, expansion caps, …).
	SuggestDT() float64
	// Clock returns the run coordinate Run compares against its `until`
	// target. It must be non-decreasing under Step.
	Clock() float64
	// Diagnostics summarises the current state for observers.
	Diagnostics() Diagnostics
}

// DTClamper is implemented by solvers whose Clock is not the coordinate dt
// is expressed in (the hybrid simulation steps in ln a but clocks in scale
// factor a). ClampDT shrinks dt so the next Step does not carry Clock past
// until. Solvers without it are clamped directly in the clock coordinate:
// dt ≤ until − Clock().
type DTClamper interface {
	ClampDT(dt, until float64) float64
}

// Checkpointer is implemented by solvers that can write a restorable
// snapshot of their full state. Checkpoint returns the number of bytes
// written (the paper charges snapshot volume to its end-to-end
// time-to-solution, so callers get to account for it).
type Checkpointer interface {
	Checkpoint(w io.Writer) (int64, error)
}

// Synchronizer is implemented by solvers whose Step leaves part of its update
// owed to the next Step — the leapfrog form of a kick-drift-kick splitting,
// where the closing half kick rides the next opening one. Synchronize applies
// what is owed, so that every part of the state is at the time of Clock; it
// is idempotent and costs nothing when nothing is owed. Run calls it once on
// every exit that follows a valid call, so the solver a caller gets back is
// synchronised. A Checkpointer that is a Synchronizer synchronises itself
// before it writes a snapshot: wrapping it without forwarding Synchronize
// costs the exit-time call, never a checkpoint's integrity.
type Synchronizer interface {
	Synchronize() error
}

// Observer is a per-step diagnostics callback. It runs after each completed
// step; returning a non-nil error aborts the run with that error.
//
// With a Synchronizer solver the observer runs while a half kick is owed.
// The solver's Diagnostics report quantities a kick does not change — mass
// plus boundary loss, density, field energy — and read the same either way;
// an observer that needs velocity moments (momentum, kinetic energy, the
// velocity structure of f) calls Synchronize first, at the price of the
// sweep the fusion saves and of a run whose last bits depend on it.
type Observer func(step int, s Solver) error

// WorkerBudgeted is implemented by solvers whose intra-step parallelism can
// be resized between steps. SetWorkers pins the number of workers the next
// Step (and SuggestDT) may use; implementations must accept any call
// ordering relative to Step and must never let the worker count change the
// computed physics — parallel decomposition is over independent lines or
// cells, so results stay bit-identical for any setting.
type WorkerBudgeted interface {
	SetWorkers(n int)
}

// WorkerLease is the runner's view of a scheduler-owned core lease (see
// sched.CoreBudget for the allocator). Workers returns the share of cores
// this run may use right now. The runner polls it once per loop iteration,
// between steps — the moment the solver's intra-step workers are quiescent
// — and implementations may use the call to commit share changes (shrink
// immediately, grow as capacity frees).
type WorkerLease interface {
	Workers() int
}

// WithWorkerBudget ties the run's intra-step parallelism to a core lease:
// before every step the runner polls lease.Workers() and, when the share
// changed and the solver implements WorkerBudgeted, applies it with
// SetWorkers — a mid-run rebalance (another job finishing, a new job
// arriving) is observed by a running job between steps. A solver without
// WorkerBudgeted runs unpinned; the poll still happens, keeping the lease's
// accounting fresh. A nil lease leaves the option unset.
func WithWorkerBudget(lease WorkerLease) Option {
	return func(o *options) { o.lease = lease }
}

// StopReason records why Run returned without error.
type StopReason int

const (
	// ReasonNone means the run ended in an error before finishing.
	ReasonNone StopReason = iota
	// ReasonUntil means the clock reached the target.
	ReasonUntil
	// ReasonMaxSteps means the WithMaxSteps budget was exhausted.
	ReasonMaxSteps
	// ReasonWallClock means the WithWallClock budget was exhausted.
	ReasonWallClock
)

func (r StopReason) String() string {
	switch r {
	case ReasonUntil:
		return "until"
	case ReasonMaxSteps:
		return "max-steps"
	case ReasonWallClock:
		return "wall-clock"
	}
	return "none"
}

// Report summarises a finished (or aborted) run. Run always returns a
// Report, even alongside an error, so partial progress is visible.
type Report struct {
	// Steps is the number of completed steps.
	Steps int
	// Clock is the solver's run coordinate after the last completed step.
	Clock float64
	// Wall is the elapsed wall-clock time of the run.
	Wall time.Duration
	// Reason records why the run stopped (ReasonNone on error).
	Reason StopReason
	// Checkpoints lists the snapshot files written and still retained
	// (WithCheckpointKeep prunes older ones), oldest first.
	Checkpoints []string
	// CheckpointBytes is the total snapshot volume written, including
	// volume later pruned by the retention policy.
	CheckpointBytes int64
	// DroppedObservations counts the observations the async pipeline
	// dropped from its full queue (always zero without WithAsyncObserver).
	// A drop before a delivered observation shows as a jump in the step
	// numbers the observer receives; one after the last delivery shows only
	// here.
	DroppedObservations int64
}

type options struct {
	maxSteps   int
	wallClock  time.Duration
	observer   Observer
	ckptDir    string
	ckptEvery  int
	ckptKeep   int
	stepTimer  func(d time.Duration)
	ckptTimer  func(clock float64, d time.Duration)
	fixedDT    float64
	fixedDTSet bool
	lease      WorkerLease
	asyncObs   AsyncObserver
}

// Option configures a Run call.
type Option func(*options)

// WithMaxSteps caps the run at n steps (0 = unlimited).
func WithMaxSteps(n int) Option {
	return func(o *options) { o.maxSteps = n }
}

// WithWallClock stops the run once the elapsed wall-clock time reaches
// budget. The budget is checked between steps and at least one step is
// always taken, so a run under budget always makes forward progress that a
// later resume can build on.
func WithWallClock(budget time.Duration) Option {
	return func(o *options) { o.wallClock = budget }
}

// WithObserver invokes obs after every completed step.
func WithObserver(obs Observer) Option {
	return func(o *options) { o.observer = obs }
}

// WithCheckpoint writes a snapshot into dir every everyN completed steps.
// The solver must implement Checkpointer or Run fails before stepping.
// Files are named ckpt_<clock>.v6d with a fixed-width zero-padded clock, so
// lexicographic order is clock order even across a stop/resume cycle into
// the same directory (a per-run step counter would restart at zero and
// overwrite the earlier segment's files). Writes are atomic (temp file +
// rename) against a crash of the process, and best-effort against power
// loss: neither file nor directory is fsynced, so after one the newest name
// may hold an empty or truncated file. The resume path makes that safe — a
// snapshot that does not restore is set aside and the next newest tried
// (sched's quarantine-and-fall-back, tested with exactly those two files) —
// at the cost of one checkpoint interval.
// dir is created by the first snapshot written into it; a run that stops
// short of its cadence leaves no directory.
func WithCheckpoint(dir string, everyN int) Option {
	return func(o *options) {
		o.ckptDir = dir
		o.ckptEvery = everyN
	}
}

// WithStepTimer calls fn with the wall-clock duration of every completed
// Step, on the step loop's goroutine. fn must be cheap — an atomic
// histogram observation, not I/O — because it sits between steps on the hot
// path (the bench's allocation gate runs without it, so instrumented
// deployments pay only what their fn costs).
func WithStepTimer(fn func(d time.Duration)) Option {
	return func(o *options) { o.stepTimer = fn }
}

// WithCheckpointTimer calls fn after every successfully written snapshot —
// one call per file, after the atomic rename — with the solver clock it
// captures and the wall-clock duration of the write (serialisation through
// rename). It fires on the step loop's goroutine, which writes every
// snapshot, so fn must not block for long: it stalls stepping. A durable
// control plane hangs its journal here: the call is the ground truth that a
// restart can resume from that clock.
func WithCheckpointTimer(fn func(clock float64, d time.Duration)) Option {
	return func(o *options) { o.ckptTimer = fn }
}

// WithCheckpointKeep prunes the checkpoint directory to the newest n
// snapshot files after every write (0, the default, keeps everything).
// Pruning considers every ckpt_*.v6d in the directory, so a resumed run
// into the same directory counts the earlier segment's files against the
// same budget.
func WithCheckpointKeep(n int) Option {
	return func(o *options) { o.ckptKeep = n }
}

// WithFixedDT disables SuggestDT and steps with the given dt (still clamped
// so the clock does not overshoot the target). dt must be positive; an
// explicit zero is an error, not a fallback to adaptive stepping.
func WithFixedDT(dt float64) Option {
	return func(o *options) {
		o.fixedDT = dt
		o.fixedDTSet = true
	}
}

// Run drives s until its Clock reaches until, or a step/wall-clock budget
// runs out, or ctx is cancelled. Cancellation returns a partial-progress
// error wrapping ctx.Err(); budget exhaustion is a normal stop recorded in
// Report.Reason. The returned Report is never nil. A solver already at the
// target is a finished run: Run takes no step, reports ReasonUntil and, under
// WithCheckpoint, writes one snapshot of the state it found; a target behind
// the clock is an error.
func Run(ctx context.Context, s Solver, until float64, opts ...Option) (*Report, error) {
	rep := &Report{}
	if s == nil {
		return rep, fmt.Errorf("runner: nil solver")
	}
	rep.Clock = s.Clock()
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	// A clock at the target — or past it by the round-off a clamped last
	// step leaves — is a finished run; one further back is a request to run
	// backwards.
	finished := rep.Clock >= until
	if finished && rep.Clock-until > 1e-9*math.Abs(until) {
		return rep, fmt.Errorf("runner: target clock %v < current clock %v", until, rep.Clock)
	}
	if o.fixedDTSet && o.fixedDT <= 0 {
		return rep, fmt.Errorf("runner: fixed dt %v must be positive", o.fixedDT)
	}
	if o.maxSteps < 0 {
		return rep, fmt.Errorf("runner: max steps %d must be non-negative", o.maxSteps)
	}
	if o.ckptKeep < 0 {
		return rep, fmt.Errorf("runner: checkpoint retention %d must be non-negative", o.ckptKeep)
	}
	if o.ckptKeep > 0 && o.ckptDir == "" {
		return rep, fmt.Errorf("runner: WithCheckpointKeep needs WithCheckpoint")
	}
	var ckpt Checkpointer
	if o.ckptDir != "" {
		if o.ckptEvery < 1 {
			return rep, fmt.Errorf("runner: checkpoint cadence %d must be ≥ 1 step", o.ckptEvery)
		}
		var ok bool
		if ckpt, ok = s.(Checkpointer); !ok {
			return rep, fmt.Errorf("runner: solver %T does not support checkpointing", s)
		}
	}
	// synchronize settles what the solver's last Step left owed; an earlier
	// error outranks its own.
	synchronize := func(err error) error {
		if sy, ok := s.(Synchronizer); ok {
			if serr := sy.Synchronize(); serr != nil && err == nil {
				err = fmt.Errorf("runner: synchronize after %d steps: %w", rep.Steps, serr)
				rep.Reason = ReasonNone
			}
		}
		return err
	}
	if finished {
		// Nothing to step. The caller who asked for checkpoints still gets
		// the state as found: no later step would ever write it.
		rep.Reason = ReasonUntil
		err := synchronize(nil)
		if err == nil && ckpt != nil {
			err = o.writeCheckpoint(rep, ckpt)
		}
		return rep, err
	}
	// Async pipeline: started after validation so every early return above
	// leaves no goroutine behind.
	var pipe *pipeline
	if o.asyncObs != nil {
		pipe = newPipeline(o.asyncObs)
	}

	// Worker budget: resolved once; the lease is polled every iteration
	// even when the solver cannot resize, because the poll is what commits
	// this run's share changes back to the allocator.
	var budgeted WorkerBudgeted
	if o.lease != nil {
		budgeted, _ = s.(WorkerBudgeted)
	}
	lastWorkers := 0

	start := time.Now()
	finish := func(err error) (*Report, error) {
		err = synchronize(err)
		if pipe != nil {
			// Drain on every exit path: each enqueued observation is
			// delivered before Run returns.
			pipe.close()
			rep.DroppedObservations = pipe.dropped
			if err == nil && pipe.err != nil {
				err = pipe.err
				rep.Reason = ReasonNone
			}
		}
		rep.Wall = time.Since(start)
		rep.Clock = s.Clock()
		return rep, err
	}
	for step := 0; ; step++ {
		if err := ctx.Err(); err != nil {
			return finish(fmt.Errorf("runner: cancelled after %d steps at clock %v: %w",
				rep.Steps, s.Clock(), err))
		}
		if pipe != nil {
			// An async observer error aborts the run within one step,
			// mirroring the synchronous contract.
			if err := pipe.failed(); err != nil {
				return finish(err)
			}
		}
		if s.Clock() >= until {
			rep.Reason = ReasonUntil
			break
		}
		if o.maxSteps > 0 && rep.Steps >= o.maxSteps {
			rep.Reason = ReasonMaxSteps
			break
		}
		if o.wallClock > 0 && rep.Steps > 0 && time.Since(start) >= o.wallClock {
			rep.Reason = ReasonWallClock
			break
		}
		if o.lease != nil {
			// Between steps: the solver's workers are quiescent, so a
			// rebalanced share applies cleanly before SuggestDT and Step
			// (both may parallelise).
			if n := o.lease.Workers(); n > 0 && n != lastWorkers {
				if budgeted != nil {
					budgeted.SetWorkers(n)
				}
				lastWorkers = n
			}
		}
		dt := o.fixedDT
		if !o.fixedDTSet {
			dt = s.SuggestDT()
		}
		if clamper, ok := s.(DTClamper); ok {
			dt = clamper.ClampDT(dt, until)
		} else if c := s.Clock(); c+dt > until {
			dt = until - c
		}
		if dt <= 0 {
			// dt underflow at the target: the clock cannot advance further.
			rep.Reason = ReasonUntil
			break
		}
		stepStart := time.Now()
		if err := s.Step(dt); err != nil {
			return finish(fmt.Errorf("runner: step %d: %w", rep.Steps, err))
		}
		if o.stepTimer != nil {
			o.stepTimer(time.Since(stepStart))
		}
		rep.Steps++
		rep.Clock = s.Clock()
		if o.observer != nil {
			if err := o.observer(step, s); err != nil {
				return finish(err)
			}
		}
		if pipe != nil {
			// Value snapshot on the step path, delivery off it. Diagnostics
			// implementations return freshly built values (see the Solver
			// contract), so the pipeline goroutine reads them race-free.
			pipe.enqueue(event{step: step, diag: s.Diagnostics()})
		}
		if ckpt != nil && rep.Steps%o.ckptEvery == 0 {
			if err := o.writeCheckpoint(rep, ckpt); err != nil {
				return finish(err)
			}
		}
	}
	return finish(nil)
}

// writeCheckpoint writes one snapshot of ckpt, taken after rep.Steps steps
// at rep.Clock, on the step loop, records it in rep, and applies the timer
// and retention options. Snapshot I/O failures are marked retryable (see
// writeCheckpointFile).
func (o *options) writeCheckpoint(rep *Report, ckpt Checkpointer) error {
	writeStart := time.Now()
	path, n, err := writeCheckpointFile(o.ckptDir, rep.Clock, ckpt.Checkpoint)
	if err != nil {
		return MarkRetryable(fmt.Errorf("runner: checkpoint at step %d: %w", rep.Steps, err))
	}
	if o.ckptTimer != nil {
		o.ckptTimer(rep.Clock, time.Since(writeStart))
	}
	rep.Checkpoints = append(rep.Checkpoints, path)
	rep.CheckpointBytes += n
	if o.ckptKeep > 0 {
		rep.Checkpoints, err = pruneCheckpoints(o.ckptDir, o.ckptKeep, rep.Checkpoints)
		if err != nil {
			return MarkRetryable(fmt.Errorf("runner: checkpoint retention at step %d: %w", rep.Steps, err))
		}
	}
	return nil
}

// writeCheckpointFile atomically writes one snapshot file ckpt_<clock>.v6d,
// zero-padded so lexicographic order is clock order. It creates dir when
// the first snapshot finds it missing, so a run that never reaches its
// cadence leaves nothing behind. Callers mark its errors, like every
// checkpoint I/O failure, retryable: they are the canonical transient fault
// (a full disk being cleared, a briefly unmounted volume), and a
// scheduler-level retry re-runs the job from its newest good snapshot.
func writeCheckpointFile(dir string, clock float64, write func(io.Writer) (int64, error)) (string, int64, error) {
	final := filepath.Join(dir, fmt.Sprintf("ckpt_%014.8f.v6d", clock))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if os.IsNotExist(err) {
		if err = os.MkdirAll(dir, 0o755); err == nil {
			f, err = os.Create(tmp)
		}
	}
	if err != nil {
		return "", 0, err
	}
	n, err := write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", n, err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", n, err
	}
	return final, n, nil
}

// pruneCheckpoints enforces the keep-newest-n retention policy over every
// ckpt_*.v6d in dir and returns written filtered to the surviving files.
func pruneCheckpoints(dir string, keep int, written []string) ([]string, error) {
	matches, err := ListCheckpoints(dir)
	if err != nil {
		return written, err
	}
	if len(matches) <= keep {
		return written, nil
	}
	removed := make(map[string]bool, len(matches)-keep)
	for _, f := range matches[:len(matches)-keep] {
		if err := os.Remove(f); err != nil {
			return written, err
		}
		removed[f] = true
	}
	kept := written[:0]
	for _, f := range written {
		if !removed[f] {
			kept = append(kept, f)
		}
	}
	return kept, nil
}

// LatestCheckpoint returns the newest checkpoint file in dir. File names
// embed a fixed-width clock, so the newest checkpoint is the
// lexicographically last ckpt_*.v6d even across stop/resume cycles.
func LatestCheckpoint(dir string) (string, error) {
	matches, err := ListCheckpoints(dir)
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("runner: no ckpt_*.v6d files in %s", dir)
	}
	return matches[len(matches)-1], nil
}

// ListCheckpoints returns every checkpoint file in dir, oldest first (clock
// order). A missing or empty directory yields an empty list, not an error —
// the caller decides whether "nothing to resume from" is a problem. The
// directory is data, not a pattern: it is read literally, so a checkpoint
// root containing glob metacharacters ("run[1]") lists exactly the files
// the writer put there.
func ListCheckpoints(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var matches []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "ckpt_") && strings.HasSuffix(name, ".v6d") {
			matches = append(matches, filepath.Join(dir, name))
		}
	}
	sort.Strings(matches)
	return matches, nil
}
