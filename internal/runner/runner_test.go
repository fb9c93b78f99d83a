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
		var notified []string
		rep, err = Run(context.Background(), f, 5, WithMaxSteps(1), WithCheckpoint(dir, 3),
			WithCheckpointNotify(func(path string, c float64) {
				if c != clock {
					t.Errorf("notified clock %v, want %v", c, clock)
				}
				notified = append(notified, path)
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
