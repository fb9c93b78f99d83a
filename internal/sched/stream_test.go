package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vlasov6d/internal/plasma"
	"vlasov6d/internal/runner"
	"vlasov6d/internal/snapio"
)

// quickJob returns a job that finishes in a handful of trivial steps.
func quickJob(name string, priority int) Job {
	return Job{
		Name:     name,
		Until:    1,
		Priority: priority,
		New:      func() (runner.Solver, error) { return &fake{dt: 0.5}, nil },
	}
}

// drainAll reads Results to closure and returns everything delivered.
func drainAll(s *Stream) []Result {
	var out []Result
	for r := range s.Results() {
		out = append(out, r)
	}
	return out
}

// waitNoGoroutinesSince fails the test unless the goroutine count returns to
// `before`: every stream goroutine (workers, closer, cancellation watcher)
// must be gone, with a moment allowed for the runtime to reap them.
func waitNoGoroutinesSince(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive, started with %d", g, before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStreamRunsSubmittedJobs(t *testing.T) {
	s, err := NewStream(context.Background(), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	const n = 9
	for i := 0; i < n; i++ {
		if err := s.Submit(quickJob(fmt.Sprintf("j%d", i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	results := drainAll(s)
	if len(results) != n {
		t.Fatalf("%d results, want %d", len(results), n)
	}
	if s.Submitted() != n {
		t.Fatalf("Submitted() = %d", s.Submitted())
	}
	for _, r := range results {
		if r.Status != Done || r.Err != nil || r.Attempt != 1 {
			t.Fatalf("job %q: %v attempt %d err %v", r.Name, r.Status, r.Attempt, r.Err)
		}
		if r.Report == nil || r.Report.Reason != runner.ReasonUntil {
			t.Fatalf("job %q report %+v", r.Name, r.Report)
		}
	}
}

func TestStreamPriorityOrdering(t *testing.T) {
	// One worker; the first job blocks the pool while the rest are
	// submitted, so the heap alone decides dispatch order: highest
	// priority first, submission order within a priority.
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s, err := NewStream(context.Background(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	blocker := Job{
		Name:  "blocker",
		Until: 1,
		New: func() (runner.Solver, error) {
			return &fake{dt: 1, onStep: func() {
				once.Do(func() { close(started) })
				<-release
			}}, nil
		},
	}
	if err := s.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	<-started
	// Queued while the worker is held: two background jobs, then an
	// urgent one submitted last but dispatched first, then a tiebreak
	// pair proving FIFO within a priority.
	for _, j := range []Job{
		quickJob("bg-1", 0),
		quickJob("bg-2", 0),
		quickJob("urgent", 10),
		quickJob("mid-1", 5),
		quickJob("mid-2", 5),
	} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if d := s.Pending(); d != 5 {
		t.Fatalf("queue depth %d, want 5", d)
	}
	close(release)
	s.Close()
	var order []string
	for r := range s.Results() {
		if r.Status != Done {
			t.Fatalf("job %q: %v (%v)", r.Name, r.Status, r.Err)
		}
		order = append(order, r.Name)
	}
	want := []string{"blocker", "urgent", "mid-1", "mid-2", "bg-1", "bg-2"}
	if len(order) != len(want) {
		t.Fatalf("completion order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order %v, want %v", order, want)
		}
	}
}

func TestStreamRetryThenSucceed(t *testing.T) {
	var attempts atomic.Int64
	var mu sync.Mutex
	var seen []Status
	s, err := NewStream(context.Background(), WithWorkers(1),
		WithRetries(3), WithRetryBackoff(time.Millisecond),
		WithNotify(func(u Update) {
			mu.Lock()
			seen = append(seen, u.Status)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(Job{
		Name:  "flaky",
		Until: 1,
		New: func() (runner.Solver, error) {
			if attempts.Add(1) < 3 {
				return nil, runner.MarkRetryable(errors.New("transient"))
			}
			return &fake{dt: 0.5}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	results := drainAll(s)
	if len(results) != 1 {
		t.Fatalf("%d results", len(results))
	}
	r := results[0]
	if r.Status != Done || r.Attempt != 3 || r.Err != nil {
		t.Fatalf("flaky job: %v attempt %d err %v", r.Status, r.Attempt, r.Err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []Status{Running, Retrying, Running, Retrying, Running, Done}
	if !statusSeqEq(seen, want) {
		t.Fatalf("transitions %v, want %v", seen, want)
	}
}

func TestStreamRetryExhaustion(t *testing.T) {
	sentinel := errors.New("disk still full")
	var attempts atomic.Int64
	s, err := NewStream(context.Background(), WithWorkers(1),
		WithRetries(2), WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(Job{
		Name:  "doomed",
		Until: 1,
		New: func() (runner.Solver, error) {
			attempts.Add(1)
			return nil, runner.MarkRetryable(sentinel)
		},
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := drainAll(s)[0]
	if r.Status != Failed || !errors.Is(r.Err, sentinel) {
		t.Fatalf("doomed job: %v %v", r.Status, r.Err)
	}
	if r.Attempt != 3 || attempts.Load() != 3 {
		t.Fatalf("attempt %d, factory calls %d, want 3 each", r.Attempt, attempts.Load())
	}
}

func TestStreamNonRetryableFailsFast(t *testing.T) {
	sentinel := errors.New("deterministic divergence")
	var attempts atomic.Int64
	s, err := NewStream(context.Background(), WithWorkers(1),
		WithRetries(5), WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(Job{
		Name:  "divergent",
		Until: 1,
		New: func() (runner.Solver, error) {
			attempts.Add(1)
			return nil, sentinel // unmarked: retrying cannot help
		},
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := drainAll(s)[0]
	if r.Status != Failed || !errors.Is(r.Err, sentinel) {
		t.Fatalf("divergent job: %v %v", r.Status, r.Err)
	}
	if attempts.Load() != 1 {
		t.Fatalf("%d attempts on a non-retryable failure", attempts.Load())
	}
}

func TestStreamSubmitAfterCloseErrors(t *testing.T) {
	s, err := NewStream(context.Background(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Submit(quickJob("late", 0)); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Submit after Close: %v, want ErrStreamClosed", err)
	}
	if err := s.Submit(Job{Name: "no-factory", Until: 1}); err == nil {
		t.Fatal("job without factory accepted")
	}
	drainAll(s)
	// Close is idempotent.
	s.Close()
}

func TestStreamSubmitAfterCancelErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := NewStream(ctx, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := s.Submit(quickJob("dead", 0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit after cancel: %v, want wrapped context.Canceled", err)
	}
	drainAll(s)
}

func TestStreamDrainOnCancelLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	s, err := NewStream(ctx, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	// Three jobs occupy every worker with never-finishing runs; five more
	// wait in the queue and must come back Cancelled without running.
	var stepped atomic.Int64
	for i := 0; i < 8; i++ {
		if err := s.Submit(Job{
			Name:  fmt.Sprintf("j%d", i),
			Until: 1e9,
			New: func() (runner.Solver, error) {
				return &fake{dt: 0.1, sleep: time.Millisecond,
					onStep: func() { stepped.Add(1) }}, nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for stepped.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	results := drainAll(s)
	if len(results) != 8 {
		t.Fatalf("%d results after cancel, want 8", len(results))
	}
	for _, r := range results {
		if r.Status != Cancelled {
			t.Fatalf("job %q: %v after cancel", r.Name, r.Status)
		}
	}
	<-s.done

	waitNoGoroutinesSince(t, before)
}

func TestStreamCloseLeavesNoGoroutines(t *testing.T) {
	// The graceful path must also release the cancellation watcher, whose
	// ctx never fires.
	before := runtime.NumGoroutine()
	s, err := NewStream(context.Background(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Submit(quickJob(fmt.Sprintf("j%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if n := len(drainAll(s)); n != 4 {
		t.Fatalf("%d results", n)
	}
	<-s.done
	waitNoGoroutinesSince(t, before)
}

// landauStreamJob builds the plasma job the checkpoint-resume tests share:
// deterministic fixed-dt Landau damping with a restore hook, and a reference
// to the live solver so tests can inspect final state.
func landauStreamJob(t *testing.T, until float64, live **plasma.Solver, cancelAt int, cancel context.CancelFunc) Job {
	t.Helper()
	const dt = 0.05
	opts := []runner.Option{runner.WithFixedDT(dt)}
	if cancelAt > 0 {
		opts = append(opts, runner.WithObserver(func(step int, _ runner.Solver) error {
			if step == cancelAt {
				cancel()
			}
			return nil
		}))
	}
	return Job{
		Name:  "landau 32x64", // the space exercises name sanitisation
		Until: until,
		Opts:  opts,
		New: func() (runner.Solver, error) {
			s, err := plasma.NewWithScheme(32, 64, 4*math.Pi, 6, "slmpp5")
			if err != nil {
				return nil, err
			}
			s.LandauInit(0.01, 0.5, 1)
			*live = s
			return s, nil
		},
		Restore: func(path string) (runner.Solver, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			s, err := plasma.Restore(f)
			if err != nil {
				return nil, err
			}
			*live = s
			return s, nil
		},
	}
}

func TestStreamCheckpointResumeBitIdentical(t *testing.T) {
	// Kill a checkpointing job mid-run, re-submit it on a fresh stream,
	// and require the resumed run to finish in exactly the state of an
	// uninterrupted one — same clock, same bits.
	const until = 2.0
	dir := t.TempDir()

	// Uninterrupted reference, under the same checkpoint cadence: a snapshot
	// synchronises the solver (it pays the half kick the last step owed), so
	// where a run checkpoints is part of what it computes.
	var ref *plasma.Solver
	refStream, err := NewStream(context.Background(), WithWorkers(1),
		WithJobCheckpoints(t.TempDir()), WithJobCheckpointEvery(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := refStream.Submit(landauStreamJob(t, until, &ref, 0, nil)); err != nil {
		t.Fatal(err)
	}
	refStream.Close()
	if r := drainAll(refStream)[0]; r.Status != Done {
		t.Fatalf("reference run: %v (%v)", r.Status, r.Err)
	}

	// First attempt: checkpoints every 5 steps, killed after step 12 —
	// past the checkpoints at steps 5 and 10, mid-flight to the next.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var killed *plasma.Solver
	s1, err := NewStream(ctx, WithWorkers(1),
		WithJobCheckpoints(dir), WithJobCheckpointEvery(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Submit(landauStreamJob(t, until, &killed, 12, cancel)); err != nil {
		t.Fatal(err)
	}
	if r := drainAll(s1)[0]; r.Status != Cancelled {
		t.Fatalf("killed run: %v (%v)", r.Status, r.Err)
	}
	jobDir := filepath.Join(dir, "landau_32x64")
	ckpts, err := runner.ListCheckpoints(jobDir)
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoints in %s (%v)", jobDir, err)
	}

	// Re-submission resumes from the newest snapshot instead of t = 0.
	var resumed *plasma.Solver
	s2, err := NewStream(context.Background(), WithWorkers(1),
		WithJobCheckpoints(dir), WithJobCheckpointEvery(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Submit(landauStreamJob(t, until, &resumed, 0, nil)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	r := drainAll(s2)[0]
	if r.Status != Done {
		t.Fatalf("resumed run: %v (%v)", r.Status, r.Err)
	}
	// 40 steps cover until = 2.0 at dt = 0.05; the resumed segment must be
	// strictly shorter — otherwise it recomputed from scratch.
	if r.Report.Steps >= 40 {
		t.Fatalf("resumed run took %d steps: did not resume", r.Report.Steps)
	}
	if resumed.Time != ref.Time {
		t.Fatalf("resumed clock %v, reference %v", resumed.Time, ref.Time)
	}
	for i := range ref.F {
		if resumed.F[i] != ref.F[i] {
			t.Fatalf("resumed state differs at %d: %v vs %v", i, resumed.F[i], ref.F[i])
		}
	}
}

func TestStreamCorruptNewestSnapshotQuarantined(t *testing.T) {
	// A newest snapshot that does not restore must not wedge the job: it is
	// renamed *.corrupt and the next-newest (valid) snapshot restores. The
	// runner renames snapshots into place without an fsync, so besides plain
	// garbage the table holds the two files a power loss can leave under the
	// newest name: nothing at all, and a valid prefix cut mid-array. The
	// last row is a 78-byte header with a valid CRC claiming 2¹⁴ × 2¹⁴
	// cells, which the restore must refuse before allocating 2 GiB for it.
	const until = 1.0
	good, err := plasma.NewWithScheme(32, 64, 4*math.Pi, 6, "slmpp5")
	if err != nil {
		t.Fatal(err)
	}
	good.LandauInit(0.01, 0.5, 1)
	for i := 0; i < 4; i++ {
		if err := good.Step(0.05); err != nil {
			t.Fatal(err)
		}
	}
	var valid bytes.Buffer
	if _, err := good.Checkpoint(&valid); err != nil {
		t.Fatal(err)
	}
	var overClaim bytes.Buffer
	e := snapio.NewEncoder(&overClaim)
	e.U64(0x56364450) // "V6DP", the plasma checkpoint magic
	e.U64(6)
	e.Bytes([]byte("slmpp5"))
	e.U64(1 << 14)
	e.U64(1 << 14)
	e.F64s([]float64{4 * math.Pi, 6, 0, 0.4}) // L, VMax, Time, CFL
	e.EndSection()
	if overClaim.Len() != 78 {
		t.Fatalf("over-claiming header is %d bytes, want 78", overClaim.Len())
	}
	for name, newest := range map[string][]byte{
		"garbage":              []byte("not a checkpoint"),
		"zero length":          {},
		"truncated mid-array":  valid.Bytes()[:valid.Len()/2],
		"over-claiming header": overClaim.Bytes(),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			jobDir := filepath.Join(dir, "landau_32x64")
			if err := os.MkdirAll(jobDir, 0o755); err != nil {
				t.Fatal(err)
			}
			// A valid early snapshot, shadowed by the bad later one.
			if err := os.WriteFile(filepath.Join(jobDir, "ckpt_00000000.20000000.v6d"), valid.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			corrupt := filepath.Join(jobDir, "ckpt_00000000.90000000.v6d")
			if err := os.WriteFile(corrupt, newest, 0o644); err != nil {
				t.Fatal(err)
			}

			var live *plasma.Solver
			var coldStarts atomic.Int64
			job := landauStreamJob(t, until, &live, 0, nil)
			inner := job.New
			job.New = func() (runner.Solver, error) {
				coldStarts.Add(1)
				return inner()
			}
			s, err := NewStream(context.Background(), WithWorkers(1),
				WithJobCheckpoints(dir), WithJobCheckpointEvery(5))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Submit(job); err != nil {
				t.Fatal(err)
			}
			s.Close()
			r := drainAll(s)[0]
			if r.Status != Done {
				t.Fatalf("job: %v (%v)", r.Status, r.Err)
			}
			if coldStarts.Load() != 0 {
				t.Fatal("fell back to a cold start despite a valid snapshot")
			}
			if _, err := os.Stat(corrupt + ".corrupt"); err != nil {
				t.Fatalf("bad snapshot not quarantined: %v", err)
			}
			// Resumed from the previous snapshot (clock 0.2), not restarted:
			// 16 steps of 0.05 are left, a cold start would take 20.
			if r.Report == nil || r.Report.Steps != 16 || live.Time != until {
				t.Fatalf("report %+v, final clock %v; want 16 steps to %v", r.Report, live.Time, until)
			}
		})
	}
}

// ckptFake is a fake that satisfies runner.Checkpointer, for stream tests
// that run trivial jobs under WithJobCheckpoints.
type ckptFake struct{ fake }

func (c *ckptFake) Checkpoint(w io.Writer) (int64, error) {
	n, err := w.Write([]byte{1})
	return int64(n), err
}

func TestStreamDuplicateActiveCheckpointKeyRejected(t *testing.T) {
	// Two concurrently-live jobs sharing a sanitised name would interleave
	// snapshots in one directory and cross-resume; Submit must reject the
	// second while the first is queued or running, and accept the same key
	// again once the first reaches a terminal state (the resume path).
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s, err := NewStream(context.Background(), WithWorkers(1),
		WithJobCheckpoints(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	blocker := Job{
		Name:  "a b", // sanitises to a_b
		Until: 1,
		New: func() (runner.Solver, error) {
			return &ckptFake{fake{dt: 1, onStep: func() {
				once.Do(func() { close(started) })
				<-release
			}}}, nil
		},
	}
	ckptJob := func(name string) Job {
		return Job{
			Name:  name,
			Until: 1,
			New:   func() (runner.Solver, error) { return &ckptFake{fake{dt: 1}}, nil },
		}
	}
	if err := s.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.Submit(ckptJob("a_b")); err == nil {
		t.Fatal("colliding checkpoint key accepted while the first job is live")
	}
	close(release)
	if r := <-s.Results(); r.Status != Done {
		t.Fatalf("blocker: %v (%v)", r.Status, r.Err)
	}
	// Terminal state frees the key: re-submission is the resume mechanism.
	if err := s.Submit(ckptJob("a_b")); err != nil {
		t.Fatalf("re-submission after terminal state rejected: %v", err)
	}
	s.Close()
	drainAll(s)
}

func TestCheckpointKeyScopedByTenant(t *testing.T) {
	// The resume key is (Tenant, Name): two tenants' live jobs of one name
	// must not reject each other, and the second tenant must cold-start
	// rather than resume from the first tenant's snapshots.
	root := t.TempDir()
	if got, want := JobCheckpointDir(root, "", "a b"), filepath.Join(root, "a_b"); got != want {
		t.Fatalf("untenanted dir %q, want the flat layout %q", got, want)
	}
	if got, want := JobCheckpointDir(root, "al/ice", "a b"), filepath.Join(root, "al_ice", "a_b"); got != want {
		t.Fatalf("tenanted dir %q, want %q", got, want)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s, err := NewStream(context.Background(), WithWorkers(1),
		WithJobCheckpoints(root), WithJobCheckpointEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	var restored atomic.Int64
	job := func(tenant string, onStep func()) Job {
		return Job{
			Name:   "same",
			Tenant: tenant,
			Until:  2,
			New:    func() (runner.Solver, error) { return &ckptFake{fake{dt: 1, onStep: onStep}}, nil },
			Restore: func(string) (runner.Solver, error) {
				restored.Add(1)
				return &ckptFake{fake{t: 2, dt: 1}}, nil
			},
		}
	}
	if err := s.Submit(job("alice", func() {
		once.Do(func() { close(started) })
		<-release
	})); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.Submit(job("bob", nil)); err != nil {
		t.Fatalf("another tenant's job of the same name rejected while live: %v", err)
	}
	if err := s.Submit(job("alice", nil)); err == nil {
		t.Fatal("the same tenant's duplicate key accepted while live")
	}
	close(release)
	s.Close()
	for _, r := range drainAll(s) {
		if r.Status != Done || r.Report.Steps != 2 {
			t.Fatalf("%+v: want a full cold-start run of 2 steps (report %+v)", r, r.Report)
		}
	}
	if restored.Load() != 0 {
		t.Fatal("a job resumed from another tenant's snapshots")
	}
	for _, tenant := range []string{"alice", "bob"} {
		if ckpts, _ := runner.ListCheckpoints(JobCheckpointDir(root, tenant, "same")); len(ckpts) == 0 {
			t.Fatalf("tenant %s has no snapshots of its own", tenant)
		}
	}
}

func TestBatchDuplicateCheckpointKeysRejected(t *testing.T) {
	jobs := []Job{
		{Name: "a b", Until: 1, New: func() (runner.Solver, error) { return &fake{dt: 0.5}, nil }},
		{Name: "a_b", Until: 1, New: func() (runner.Solver, error) { return &fake{dt: 0.5}, nil }},
	}
	if _, err := RunBatch(context.Background(), jobs, WithJobCheckpoints(t.TempDir())); err == nil {
		t.Fatal("colliding sanitised names accepted under WithJobCheckpoints")
	}
	// Without checkpoint keying the same batch is fine.
	if _, err := RunBatch(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
}

func TestRetryDelayDoublesAndClamps(t *testing.T) {
	base := 100 * time.Millisecond
	if d := retryDelay(base, 1); d != base {
		t.Fatalf("attempt 1: %v", d)
	}
	if d := retryDelay(base, 3); d != 4*base {
		t.Fatalf("attempt 3: %v", d)
	}
	// High attempt counts must clamp, never overflow into a zero-delay
	// hot loop against the failing resource.
	for _, attempt := range []int{12, 40, 64, 1 << 20} {
		if d := retryDelay(base, attempt); d != maxRetryBackoff {
			t.Fatalf("attempt %d: %v, want clamp at %v", attempt, d, maxRetryBackoff)
		}
	}
	if d := retryDelay(0, 5); d != 0 {
		t.Fatalf("explicit zero backoff: %v", d)
	}
	if d := retryDelay(2*time.Minute, 1); d != maxRetryBackoff {
		t.Fatalf("oversized base: %v, want clamp", d)
	}
}

func TestStreamOptionValidation(t *testing.T) {
	if _, err := NewStream(context.Background(), WithWorkers(-1)); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := NewStream(context.Background(), WithRetries(-1)); err == nil {
		t.Fatal("negative retries accepted")
	}
	if _, err := NewStream(context.Background(), WithRetryBackoff(-time.Second)); err == nil {
		t.Fatal("negative backoff accepted")
	}
	if _, err := NewStream(context.Background(), WithJobCheckpointEvery(0)); err == nil {
		t.Fatal("zero checkpoint cadence accepted")
	}
}
