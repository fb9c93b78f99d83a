package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fake is a minimal Solver: clock = time, constant suggested dt.
type fake struct {
	t     float64
	dt    float64
	steps int
	fail  int // step index (1-based count) at which Step errors, 0 = never
}

func (f *fake) Step(dt float64) error {
	if f.fail > 0 && f.steps+1 >= f.fail {
		return fmt.Errorf("fake: induced failure")
	}
	f.t += dt
	f.steps++
	return nil
}
func (f *fake) SuggestDT() float64 { return f.dt }
func (f *fake) Clock() float64     { return f.t }
func (f *fake) Diagnostics() Diagnostics {
	return Diagnostics{Clock: f.t, Time: f.t, Mass: 1}
}

// ckptFake additionally checkpoints its clock as 8 bytes.
type ckptFake struct{ fake }

func (c *ckptFake) Checkpoint(w io.Writer) (int64, error) {
	n, err := fmt.Fprintf(w, "%8.5f", c.t)
	return int64(n), err
}

func TestRunReachesTargetWithClamp(t *testing.T) {
	f := &fake{dt: 0.3}
	rep, err := Run(context.Background(), f, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != ReasonUntil {
		t.Fatalf("reason %v", rep.Reason)
	}
	// 0.3 + 0.3 + 0.3 + clamped 0.1.
	if rep.Steps != 4 {
		t.Fatalf("steps %d", rep.Steps)
	}
	if math.Abs(rep.Clock-1.0) > 1e-12 {
		t.Fatalf("clock %v", rep.Clock)
	}
	if rep.Wall <= 0 {
		t.Fatal("wall time not recorded")
	}
}

func TestRunMaxSteps(t *testing.T) {
	f := &fake{dt: 0.1}
	rep, err := Run(context.Background(), f, 100, WithMaxSteps(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != ReasonMaxSteps || rep.Steps != 3 {
		t.Fatalf("reason %v steps %d", rep.Reason, rep.Steps)
	}
}

func TestRunWallClockTakesAtLeastOneStep(t *testing.T) {
	f := &fake{dt: 0.1}
	rep, err := Run(context.Background(), f, 100, WithWallClock(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reason != ReasonWallClock {
		t.Fatalf("reason %v", rep.Reason)
	}
	if rep.Steps != 1 {
		t.Fatalf("steps %d, want exactly 1 under a 1ns budget", rep.Steps)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fake{dt: 0.1}
	rep, err := Run(ctx, f, 100, WithObserver(func(step int, s Solver) error {
		if step == 1 {
			cancel()
		}
		return nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if rep.Steps != 2 {
		t.Fatalf("partial progress %d steps, want 2", rep.Steps)
	}
	if rep.Reason != ReasonNone {
		t.Fatalf("reason %v", rep.Reason)
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, &fake{dt: 0.1}, 1)
	if !errors.Is(err, context.Canceled) || rep.Steps != 0 {
		t.Fatalf("err %v steps %d", err, rep.Steps)
	}
}

func TestRunStepErrorPartialReport(t *testing.T) {
	f := &fake{dt: 0.1, fail: 3}
	rep, err := Run(context.Background(), f, 100)
	if err == nil {
		t.Fatal("induced step failure not propagated")
	}
	if rep.Steps != 2 {
		t.Fatalf("steps %d", rep.Steps)
	}
}

func TestRunObserverErrorAborts(t *testing.T) {
	sentinel := errors.New("stop now")
	f := &fake{dt: 0.1}
	_, err := Run(context.Background(), f, 100, WithObserver(func(int, Solver) error {
		return sentinel
	}))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err %v", err)
	}
}

func TestRunFixedDT(t *testing.T) {
	f := &fake{dt: 99} // SuggestDT must not be used
	rep, err := Run(context.Background(), f, 1.0, WithFixedDT(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 4 || math.Abs(rep.Clock-1.0) > 1e-12 {
		t.Fatalf("steps %d clock %v", rep.Steps, rep.Clock)
	}
}

func TestRunValidation(t *testing.T) {
	f := &fake{t: 5, dt: 0.1}
	if _, err := Run(context.Background(), f, 4.9); err == nil {
		t.Fatal("target behind the clock accepted")
	}
	if _, err := Run(context.Background(), f, 6, WithFixedDT(-1)); err == nil {
		t.Fatal("negative fixed dt accepted")
	}
	if _, err := Run(context.Background(), f, 6, WithFixedDT(0)); err == nil {
		t.Fatal("explicit zero fixed dt accepted (would silently fall back to adaptive)")
	}
	if _, err := Run(context.Background(), f, 6, WithMaxSteps(-1)); err == nil {
		t.Fatal("negative max steps accepted")
	}
	if _, err := Run(context.Background(), f, 6, WithCheckpoint(t.TempDir(), 0)); err == nil {
		t.Fatal("zero checkpoint cadence accepted")
	}
	if _, err := Run(context.Background(), nil, 6); err == nil {
		t.Fatal("nil solver accepted")
	}
}

// TestRunOnFinishedSolver: a solver already at the target — exactly, or past
// it by the round-off a clamped last step leaves — is a finished run, not an
// error: no step, ReasonUntil, and the snapshot the caller asked for.
func TestRunOnFinishedSolver(t *testing.T) {
	for _, clock := range []float64{5, 5 * (1 + 4e-13)} {
		f := &ckptFake{fake{t: clock, dt: 0.1}}
		rep, err := Run(context.Background(), f, 5)
		if err != nil || rep.Steps != 0 || f.steps != 0 || rep.Reason != ReasonUntil || rep.Clock != clock {
			t.Fatalf("clock %v: report %+v, err %v", clock, rep, err)
		}
		if len(rep.Checkpoints) != 0 {
			t.Fatalf("clock %v: checkpoints %v without WithCheckpoint", clock, rep.Checkpoints)
		}
		dir := t.TempDir()
		var notified []float64
		rep, err = Run(context.Background(), f, 5, WithMaxSteps(1), WithCheckpoint(dir, 3),
			WithCheckpointTimer(func(c float64, _ time.Duration) {
				if c != clock {
					t.Errorf("notified clock %v, want %v", c, clock)
				}
				notified = append(notified, c)
			}))
		if err != nil || rep.Steps != 0 || rep.Reason != ReasonUntil {
			t.Fatalf("clock %v with checkpoints: report %+v, err %v", clock, rep, err)
		}
		onDisk, _ := ListCheckpoints(dir)
		if len(rep.Checkpoints) != 1 || len(onDisk) != 1 || len(notified) != 1 || onDisk[0] != rep.Checkpoints[0] {
			t.Fatalf("clock %v: reported %v, on disk %v, notified %v; want one snapshot of the final state",
				clock, rep.Checkpoints, onDisk, notified)
		}
		got, err := os.ReadFile(onDisk[0])
		if want := fmt.Sprintf("%8.5f", clock); err != nil || string(got) != want {
			t.Fatalf("clock %v: snapshot holds %q (err %v), want %q", clock, got, err, want)
		}
	}
	// Round-off is not a licence to run backwards.
	if _, err := Run(context.Background(), &fake{t: 5 * (1 + 1e-6), dt: 0.1}, 5); err == nil {
		t.Fatal("target behind the clock by 1e-6 accepted")
	}
}

func TestRunCheckpointUnsupportedSolver(t *testing.T) {
	f := &fake{dt: 0.1}
	_, err := Run(context.Background(), f, 1, WithCheckpoint(t.TempDir(), 1))
	if err == nil {
		t.Fatal("checkpointing accepted for a solver without Checkpoint")
	}
}

func TestRunCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	f := &ckptFake{fake{dt: 0.1}}
	rep, err := Run(context.Background(), f, 100, WithMaxSteps(5), WithCheckpoint(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checkpoints) != 2 {
		t.Fatalf("checkpoints %v", rep.Checkpoints)
	}
	// Names are keyed to the monotone solver clock (not the per-Run step
	// counter), so a resumed run into the same directory cannot overwrite
	// the earlier segment's files.
	want := []string{
		filepath.Join(dir, "ckpt_00000.20000000.v6d"),
		filepath.Join(dir, "ckpt_00000.40000000.v6d"),
	}
	for i, p := range rep.Checkpoints {
		if p != want[i] {
			t.Fatalf("checkpoint %d = %s, want %s", i, p, want[i])
		}
		if _, err := os.Stat(p); err != nil {
			t.Fatal(err)
		}
	}
	if rep.CheckpointBytes != 16 {
		t.Fatalf("checkpoint bytes %d", rep.CheckpointBytes)
	}
	// No leftover temp files from the atomic write path.
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil || len(matches) != 0 {
		t.Fatalf("leftover temp files %v (err %v)", matches, err)
	}
}

func TestStopReasonString(t *testing.T) {
	for r, want := range map[StopReason]string{
		ReasonNone: "none", ReasonUntil: "until",
		ReasonMaxSteps: "max-steps", ReasonWallClock: "wall-clock",
	} {
		if r.String() != want {
			t.Fatalf("%d → %q, want %q", r, r.String(), want)
		}
	}
}

// syncFake is a fake that owes a half kick after every step, as the
// leapfrog-form solvers do, and counts the calls that settle it.
type syncFake struct {
	ckptFake
	owed    bool
	syncs   int // Synchronize calls
	paid    int // of which had something to pay
	syncErr error
}

func (f *syncFake) Step(dt float64) error {
	err := f.fake.Step(dt)
	f.owed = err == nil
	return err
}

func (f *syncFake) Synchronize() error {
	f.syncs++
	if f.syncErr != nil {
		return f.syncErr
	}
	if f.owed {
		f.paid++
		f.owed = false
	}
	return nil
}

func (f *syncFake) Checkpoint(w io.Writer) (int64, error) {
	if err := f.Synchronize(); err != nil {
		return 0, err
	}
	return f.ckptFake.Checkpoint(w)
}

// TestRunSynchronizesOnEveryExit: whatever ends a run, the runner itself
// calls Synchronize exactly once, and the solver it hands back owes nothing.
func TestRunSynchronizesOnEveryExit(t *testing.T) {
	sentinel := errors.New("observer says stop")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name    string
		f       *syncFake
		ctx     context.Context
		until   float64
		opts    []Option
		steps   int
		reason  StopReason
		wantErr error
	}{
		{name: "until", f: &syncFake{}, until: 0.35, steps: 4, reason: ReasonUntil},
		{name: "max steps", f: &syncFake{}, until: 100, opts: []Option{WithMaxSteps(3)}, steps: 3, reason: ReasonMaxSteps},
		{name: "wall clock", f: &syncFake{}, until: 100, opts: []Option{WithWallClock(time.Nanosecond)}, steps: 1, reason: ReasonWallClock},
		{name: "cancelled context", f: &syncFake{}, ctx: cancelled, until: 100, wantErr: context.Canceled},
		{name: "step error", f: &syncFake{ckptFake: ckptFake{fake{fail: 3}}}, until: 100, steps: 2},
		{name: "observer error", f: &syncFake{}, until: 100, steps: 1, wantErr: sentinel,
			opts: []Option{WithObserver(func(int, Solver) error { return sentinel })}},
		{name: "already finished", f: &syncFake{ckptFake: ckptFake{fake{t: 5}}, owed: true}, until: 5, reason: ReasonUntil},
		{name: "async pipeline", f: &syncFake{}, until: 100, steps: 3, reason: ReasonMaxSteps,
			opts: []Option{WithMaxSteps(3), WithAsyncObserver(func(int, Diagnostics) error { return nil })}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.f.dt = 0.1
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			rep, err := Run(ctx, tc.f, tc.until, tc.opts...)
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("err %v, want %v", err, tc.wantErr)
			}
			if (err == nil) != (tc.reason != ReasonNone) || rep.Reason != tc.reason || rep.Steps != tc.steps {
				t.Fatalf("report %+v, err %v; want %d steps, reason %v", rep, err, tc.steps, tc.reason)
			}
			if tc.f.syncs != 1 || tc.f.owed {
				t.Fatalf("%d Synchronize calls, half kick still owed: %v; want exactly one call and none owed",
					tc.f.syncs, tc.f.owed)
			}
		})
	}
}

// TestRunSynchronizesThroughCheckpoints: a solver's own synchronisation at a
// snapshot and the runner's at the exit compose — every cadence hit pays one
// half kick, the exit pays the last if one is owed, and the already-finished
// path synchronises before it snapshots.
func TestRunSynchronizesThroughCheckpoints(t *testing.T) {
	f := &syncFake{}
	f.dt = 0.1
	rep, err := Run(context.Background(), f, 100, WithMaxSteps(5), WithCheckpoint(t.TempDir(), 2))
	if err != nil || len(rep.Checkpoints) != 2 {
		t.Fatalf("report %+v, err %v", rep, err)
	}
	if f.syncs != 3 || f.paid != 3 || f.owed { // steps 2 and 4, then the exit after step 5
		t.Fatalf("%d Synchronize calls paid %d kicks, owed %v; want 3, 3, false", f.syncs, f.paid, f.owed)
	}
	done := &syncFake{ckptFake: ckptFake{fake{t: 5}}, owed: true}
	if _, err := Run(context.Background(), done, 5, WithCheckpoint(t.TempDir(), 1)); err != nil {
		t.Fatal(err)
	}
	if done.syncs != 2 || done.paid != 1 || done.owed { // the runner's, then the snapshot's own no-op
		t.Fatalf("finished run: %d Synchronize calls paid %d kicks, owed %v", done.syncs, done.paid, done.owed)
	}
}

// TestRunSynchronizeErrorSurfaces: a failed Synchronize fails a run that had
// succeeded so far, and never masks the error that ended one.
func TestRunSynchronizeErrorSurfaces(t *testing.T) {
	boom := errors.New("kick failed")
	f := &syncFake{syncErr: boom}
	f.dt = 0.1
	rep, err := Run(context.Background(), f, 100, WithMaxSteps(2))
	if !errors.Is(err, boom) || rep.Steps != 2 || rep.Reason != ReasonNone {
		t.Fatalf("report %+v, err %v; want the Synchronize error after 2 steps", rep, err)
	}
	done := &syncFake{ckptFake: ckptFake{fake{t: 5}}, syncErr: boom}
	if rep, err := Run(context.Background(), done, 5); !errors.Is(err, boom) || rep.Reason != ReasonNone {
		t.Fatalf("finished run: report %+v, err %v", rep, err)
	}
	sentinel := errors.New("observer says stop")
	f = &syncFake{syncErr: boom}
	f.dt = 0.1
	_, err = Run(context.Background(), f, 100, WithObserver(func(int, Solver) error { return sentinel }))
	if !errors.Is(err, sentinel) || errors.Is(err, boom) {
		t.Fatalf("err %v; want the observer's error, not Synchronize's", err)
	}
}
