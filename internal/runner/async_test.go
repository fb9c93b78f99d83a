package runner

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// obsLog collects async observations thread-safely.
type obsLog struct {
	mu    sync.Mutex
	steps []int
	diags []Diagnostics
}

func (l *obsLog) observe(step int, d Diagnostics) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.steps = append(l.steps, step)
	l.diags = append(l.diags, d)
	return nil
}

func (l *obsLog) snapshot() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.steps...)
}

func TestAsyncObserverDrainsOnNormalExit(t *testing.T) {
	var log obsLog
	f := &fake{dt: 0.1}
	rep, err := Run(context.Background(), f, 100, WithMaxSteps(10),
		WithAsyncObserver(log.observe))
	if err != nil {
		t.Fatal(err)
	}
	steps := log.snapshot()
	if len(steps) != 10 {
		t.Fatalf("observed %d steps, want all 10 delivered before Run returns", len(steps))
	}
	for i, s := range steps {
		if s != i {
			t.Fatalf("observation %d has step %d; want in-order delivery", i, s)
		}
	}
	if rep.DroppedObservations != 0 {
		t.Fatalf("dropped %d from a queue that never filled", rep.DroppedObservations)
	}
	// The delivered diagnostics are value snapshots of each step's state.
	log.mu.Lock()
	defer log.mu.Unlock()
	for i, d := range log.diags {
		want := 0.1 * float64(i+1)
		if diff := d.Clock - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("observation %d clock %v, want %v", i, d.Clock, want)
		}
	}
}

func TestAsyncObserverDrainsOnCancel(t *testing.T) {
	var log obsLog
	ctx, cancel := context.WithCancel(context.Background())
	f := &fake{dt: 0.1}
	_, err := Run(ctx, f, 100,
		WithObserver(func(step int, _ Solver) error {
			if step == 4 {
				cancel()
			}
			return nil
		}),
		WithAsyncObserver(log.observe))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if steps := log.snapshot(); len(steps) != 5 {
		t.Fatalf("observed %d steps after cancel, want all 5 enqueued before it", len(steps))
	}
}

func TestAsyncObserverErrorAbortsRun(t *testing.T) {
	sentinel := errors.New("async stop")
	failed := make(chan struct{})
	f := &fake{dt: 0.1}
	rep, err := Run(context.Background(), f, 1e9,
		// The step loop never waits on the pipeline, so hold it at step 3
		// until the observer has returned its error, which the pipeline
		// records at once: the abort then lands within a step or two.
		WithObserver(func(step int, _ Solver) error {
			if step == 3 {
				<-failed
			}
			return nil
		}),
		WithAsyncObserver(func(step int, d Diagnostics) error {
			if step == 2 {
				defer close(failed)
				return sentinel
			}
			return nil
		}))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err %v, want sentinel", err)
	}
	if rep.Steps < 3 || rep.Steps > 3+asyncBuffer {
		t.Fatalf("run took %d steps; the abort should land within the queue depth", rep.Steps)
	}
}

func TestAsyncDropOldestNeverBlocksStepLoop(t *testing.T) {
	// Four queues' worth of steps: the drain at exit delivers at most one
	// queue, so the async run pays at most a quarter of the sync delays.
	const steps = 4 * asyncBuffer
	const delay = time.Millisecond
	slowObs := func(int, Solver) error { time.Sleep(delay); return nil }
	slowAsync := func(int, Diagnostics) error { time.Sleep(delay); return nil }

	// Synchronous baseline: the step loop pays the observer delay on every
	// step.
	f := &fake{dt: 0.1}
	repSync, err := Run(context.Background(), f, 1e9, WithMaxSteps(steps),
		WithObserver(slowObs))
	if err != nil {
		t.Fatal(err)
	}
	if repSync.Wall < steps*delay {
		t.Fatalf("sync run %v, must block for ≥ %v", repSync.Wall, steps*delay)
	}

	// Async: the hot loop only enqueues, so the run completes in a
	// fraction of the synchronous wall time even with the same slow
	// observer (the drain at exit pays at most asyncBuffer×delay).
	f = &fake{dt: 0.1}
	repAsync, err := Run(context.Background(), f, 1e9, WithMaxSteps(steps),
		WithAsyncObserver(slowAsync))
	if err != nil {
		t.Fatal(err)
	}
	if repAsync.Wall >= repSync.Wall/2 {
		t.Fatalf("async run %v not faster than half the sync run %v", repAsync.Wall, repSync.Wall)
	}
	if repAsync.DroppedObservations == 0 {
		t.Fatal("a full queue under a slow consumer must drop observations")
	}
	if repAsync.DroppedObservations >= steps {
		t.Fatalf("dropped %d of %d: nothing was delivered", repAsync.DroppedObservations, steps)
	}
}

func TestAsyncDropOldestKeepsOrder(t *testing.T) {
	const total = asyncBuffer + 30
	var log obsLog
	block := make(chan struct{})
	first := true
	f := &fake{dt: 0.1}
	_, err := Run(context.Background(), f, 1e9, WithMaxSteps(total),
		// Release the pipeline from the hot loop at the last step, so the
		// exit drain (which waits for the observer) cannot deadlock.
		WithObserver(func(step int, _ Solver) error {
			if step == total-1 {
				close(block)
			}
			return nil
		}),
		WithAsyncObserver(func(step int, d Diagnostics) error {
			if first {
				first = false
				<-block // hold the pipeline so the queue overflows
			}
			return log.observe(step, d)
		}))
	if err != nil {
		t.Fatal(err)
	}
	steps := log.snapshot()
	if len(steps) == 0 {
		t.Fatal("nothing delivered")
	}
	for i := 1; i < len(steps); i++ {
		if steps[i] <= steps[i-1] {
			t.Fatalf("out-of-order delivery: %v", steps)
		}
	}
	if last := steps[len(steps)-1]; last != total-1 {
		t.Fatalf("last delivered step %d; drop-oldest must keep the newest", last)
	}
}

func TestCheckpointKeepPrunesSyncPath(t *testing.T) {
	dir := t.TempDir()
	f := &ckptFake{fake{dt: 0.1}}
	rep, err := Run(context.Background(), f, 100, WithMaxSteps(10),
		WithCheckpoint(dir, 2), WithCheckpointKeep(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checkpoints) != 2 {
		t.Fatalf("report retains %v, want the newest 2", rep.Checkpoints)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt_*.v6d"))
	if err != nil || len(matches) != 2 {
		t.Fatalf("on disk: %v (err %v)", matches, err)
	}
	// Bytes still count every write: 5 writes × 8 bytes.
	if rep.CheckpointBytes != 40 {
		t.Fatalf("checkpoint bytes %d, want 40 (pruning must not uncount volume)", rep.CheckpointBytes)
	}
	want := []string{
		filepath.Join(dir, "ckpt_00000.80000000.v6d"),
		filepath.Join(dir, "ckpt_00001.00000000.v6d"),
	}
	for i, p := range rep.Checkpoints {
		if p != want[i] {
			t.Fatalf("retained %v, want %v", rep.Checkpoints, want)
		}
	}
}

func TestLatestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if _, err := LatestCheckpoint(dir); err == nil {
		t.Fatal("empty directory accepted")
	}
	f := &ckptFake{fake{dt: 0.1}}
	rep, err := Run(context.Background(), f, 100, WithMaxSteps(6), WithCheckpoint(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	latest, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := rep.Checkpoints[len(rep.Checkpoints)-1]; latest != want {
		t.Fatalf("latest %s, want %s", latest, want)
	}
}

func TestAsyncValidation(t *testing.T) {
	f := &fake{dt: 0.1}
	if _, err := Run(context.Background(), f, 1, WithCheckpointKeep(-1)); err == nil {
		t.Fatal("negative retention accepted")
	}
	if _, err := Run(context.Background(), f, 1, WithCheckpointKeep(2)); err == nil {
		t.Fatal("retention without checkpointing accepted")
	}
}

// withPipeline starts the async pipeline with an observer that discards
// every observation.
func withPipeline() Option {
	return WithAsyncObserver(func(int, Diagnostics) error { return nil })
}

func TestCheckpointNotifyBothPaths(t *testing.T) {
	// One WithCheckpointTimer call per durable file, after the rename — the
	// file is already listed under its final name — carrying the clock it
	// captures, on the step loop, with and without the async pipeline
	// running beside it.
	type note struct {
		path  string
		clock float64
	}
	for name, opts := range map[string][]Option{
		"sync":  nil,
		"async": {withPipeline()},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var mu sync.Mutex
			var notes []note
			rep, err := Run(context.Background(), &ckptFake{fake{dt: 0.1}}, 100, append(opts, WithMaxSteps(6), WithCheckpoint(dir, 2),
				WithCheckpointTimer(func(clock float64, d time.Duration) {
					newest, err := LatestCheckpoint(dir)
					if err != nil || d < 0 {
						t.Errorf("timer at clock %v: newest %q (%v), took %v", clock, newest, err, d)
					}
					mu.Lock()
					notes = append(notes, note{newest, clock})
					mu.Unlock()
				}))...)
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(notes) != len(rep.Checkpoints) {
				t.Fatalf("%d notifications for %d checkpoints", len(notes), len(rep.Checkpoints))
			}
			for i, n := range notes {
				if n.path != rep.Checkpoints[i] {
					t.Fatalf("notification %d path %q, want %q", i, n.path, rep.Checkpoints[i])
				}
				want := 0.2 * float64(i+1)
				if diff := n.clock - want; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("notification %d clock %v, want %v", i, n.clock, want)
				}
			}
		})
	}
}
