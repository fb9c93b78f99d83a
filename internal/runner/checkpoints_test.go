package runner

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func touch(t *testing.T, path string) {
	t.Helper()
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestListCheckpointsLiteralDirectory(t *testing.T) {
	// The directory is data, not a glob pattern: metacharacters in a
	// user-chosen checkpoint root ("run[1]") must not disable listing —
	// silently losing resume and retention would recompute whole campaigns.
	dir := filepath.Join(t.TempDir(), "run[1]")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	touch(t, filepath.Join(dir, "ckpt_00000002.00000000.v6d"))
	touch(t, filepath.Join(dir, "ckpt_00000001.00000000.v6d"))
	touch(t, filepath.Join(dir, "ckpt_00000001.00000000.v6d.corrupt")) // quarantined: excluded
	touch(t, filepath.Join(dir, "notes.txt"))                          // unrelated: excluded

	got, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("listed %v, want the 2 ckpt files", got)
	}
	if filepath.Base(got[0]) != "ckpt_00000001.00000000.v6d" ||
		filepath.Base(got[1]) != "ckpt_00000002.00000000.v6d" {
		t.Fatalf("order %v, want oldest first", got)
	}
	latest, err := LatestCheckpoint(dir)
	if err != nil || filepath.Base(latest) != "ckpt_00000002.00000000.v6d" {
		t.Fatalf("latest %q (%v)", latest, err)
	}
}

func TestListCheckpointsMissingDirEmpty(t *testing.T) {
	got, err := ListCheckpoints(filepath.Join(t.TempDir(), "never-created"))
	if err != nil || len(got) != 0 {
		t.Fatalf("missing dir: %v, %v — want empty list, nil error", got, err)
	}
}

// TestCheckpointDirAppearsWithFirstSnapshot: the directory is made by the
// write that first needs it — not before the cadence fires, and never for a
// run that stops short of it — with and without the async pipeline running.
func TestCheckpointDirAppearsWithFirstSnapshot(t *testing.T) {
	exists := func(dir string) bool {
		_, err := os.Stat(dir)
		return err == nil
	}
	for name, c := range map[string]struct {
		solver func() Solver
		opts   []Option
	}{
		"sync":  {func() Solver { return &ckptFake{fake{dt: 0.1}} }, nil},
		"async": {func() Solver { return &ckptFake{fake{dt: 0.1}} }, []Option{withPipeline()}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "tenant", "job")
			run := func(maxSteps int) *Report {
				t.Helper()
				// The observer runs after a step and before that step's
				// checkpoint: through step 3 the directory must not exist.
				early := WithObserver(func(step int, _ Solver) error {
					if step < 3 && exists(dir) {
						t.Errorf("directory exists after step %d, before the cadence fired", step+1)
					}
					return nil
				})
				rep, err := Run(context.Background(), c.solver(), 100,
					append([]Option{WithMaxSteps(maxSteps), WithCheckpoint(dir, 3), early}, c.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			if rep := run(2); len(rep.Checkpoints) != 0 || exists(dir) {
				t.Fatalf("2 steps at cadence 3: checkpoints %v, directory exists: %v", rep.Checkpoints, exists(dir))
			}
			if got, err := ListCheckpoints(dir); err != nil || len(got) != 0 {
				t.Fatalf("ListCheckpoints on the missing directory: %v, %v", got, err)
			}
			rep := run(4)
			if len(rep.Checkpoints) != 1 || filepath.Dir(rep.Checkpoints[0]) != dir {
				t.Fatalf("4 steps at cadence 3: checkpoints %v", rep.Checkpoints)
			}
			if _, err := os.Stat(rep.Checkpoints[0]); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckpointDirUncreatable: a file where the directory should go fails
// the run at the first write — the steps before it ran — and the error is
// retryable like every other checkpoint I/O failure.
func TestCheckpointDirUncreatable(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "tenant")
	touch(t, blocker)
	for name, c := range map[string]struct {
		solver Solver
		opts   []Option
	}{
		"sync":  {&ckptFake{fake{dt: 0.1}}, nil},
		"async": {&ckptFake{fake{dt: 0.1}}, []Option{withPipeline()}},
	} {
		t.Run(name, func(t *testing.T) {
			rep, err := Run(context.Background(), c.solver, 100,
				append([]Option{WithMaxSteps(5), WithCheckpoint(filepath.Join(blocker, "job"), 2)}, c.opts...)...)
			if err == nil || !IsRetryable(err) {
				t.Fatalf("err = %v, want a retryable checkpoint failure", err)
			}
			if rep.Steps < 2 || len(rep.Checkpoints) != 0 {
				t.Fatalf("steps %d, checkpoints %v: want the failure at the first write, after step 2", rep.Steps, rep.Checkpoints)
			}
		})
	}
}
