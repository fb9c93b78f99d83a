package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vlasov6d/internal/runner"
)

// fake is a minimal Solver: clock = time, constant dt, optional per-step
// sleep and hook.
type fake struct {
	t, dt  float64
	sleep  time.Duration
	onStep func()
}

func (f *fake) Step(dt float64) error {
	if f.onStep != nil {
		f.onStep()
	}
	if f.sleep > 0 {
		time.Sleep(f.sleep)
	}
	f.t += dt
	return nil
}
func (f *fake) SuggestDT() float64 { return f.dt }
func (f *fake) Clock() float64     { return f.t }
func (f *fake) Diagnostics() runner.Diagnostics {
	return runner.Diagnostics{Clock: f.t, Time: f.t, Mass: 1}
}

func TestBatchRunsAllJobsInOrder(t *testing.T) {
	var jobs []Job
	for i := 0; i < 6; i++ {
		i := i
		jobs = append(jobs, Job{
			Name:  fmt.Sprintf("job-%d", i),
			Until: float64(i + 1),
			New:   func() (runner.Solver, error) { return &fake{dt: 0.5}, nil },
		})
	}
	results, err := RunBatch(context.Background(), jobs, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if r.Name != fmt.Sprintf("job-%d", i) {
			t.Fatalf("result %d is %q: order not deterministic", i, r.Name)
		}
		if r.Status != Done || r.Err != nil {
			t.Fatalf("job %d: %v %v", i, r.Status, r.Err)
		}
		if r.Report == nil || r.Report.Reason != runner.ReasonUntil {
			t.Fatalf("job %d report %+v", i, r.Report)
		}
		// until = i+1 at dt = 0.5 → 2(i+1) steps.
		if want := 2 * (i + 1); r.Report.Steps != want {
			t.Fatalf("job %d took %d steps, want %d", i, r.Report.Steps, want)
		}
	}
}

func TestWorkerPoolBound(t *testing.T) {
	const workers = 2
	var live, peak atomic.Int64
	var jobs []Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, Job{
			Name:  fmt.Sprintf("j%d", i),
			Until: 1,
			New: func() (runner.Solver, error) {
				return &fake{dt: 0.2, onStep: func() {
					n := live.Add(1)
					for {
						p := peak.Load()
						if n <= p || peak.CompareAndSwap(p, n) {
							break
						}
					}
					time.Sleep(time.Millisecond) // hold the slot so overlap is observable
					live.Add(-1)
				}}, nil
			},
		})
	}
	results, err := RunBatch(context.Background(), jobs, WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Status != Done {
			t.Fatalf("job %d: %v", i, r.Status)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("%d jobs stepped concurrently, pool bound is %d", p, workers)
	}
}

func TestCancellationMidBatchStopsQueuedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var factoryCalls atomic.Int64
	jobs := []Job{
		{
			Name:  "canceller",
			Until: 1e9,
			New: func() (runner.Solver, error) {
				factoryCalls.Add(1)
				return &fake{dt: 0.1}, nil
			},
			Opts: []runner.Option{runner.WithObserver(func(step int, _ runner.Solver) error {
				if step == 1 {
					cancel()
				}
				return nil
			})},
		},
	}
	for i := 0; i < 4; i++ {
		jobs = append(jobs, Job{
			Name:  fmt.Sprintf("queued-%d", i),
			Until: 1e9,
			New: func() (runner.Solver, error) {
				factoryCalls.Add(1)
				return &fake{dt: 0.1}, nil
			},
		})
	}
	results, err := RunBatch(ctx, jobs, WithWorkers(1))
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error %v, want wrapped context.Canceled", err)
	}
	if results[0].Status != Cancelled {
		t.Fatalf("running job status %v", results[0].Status)
	}
	if results[0].Report == nil || results[0].Report.Steps != 2 {
		t.Fatalf("running job lost its partial progress: %+v", results[0].Report)
	}
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("running job err %v", results[0].Err)
	}
	for i, r := range results[1:] {
		if r.Status != Cancelled {
			t.Fatalf("queued job %d status %v, want Cancelled", i, r.Status)
		}
		if r.Report != nil || r.Err != nil {
			t.Fatalf("queued job %d ran: %+v", i, r)
		}
	}
	// Queued jobs must never have constructed their solvers. At most the
	// canceller plus one job the single worker may have dequeued before the
	// dispatcher noticed the cancellation.
	if n := factoryCalls.Load(); n > 2 {
		t.Fatalf("%d factories called after cancellation", n)
	}
}

func TestBatchDispatchesByPriorityThenSliceOrder(t *testing.T) {
	// One worker. Job 0 carries the top priority, so it is first whether the
	// worker pops it alone or after the whole slice is queued; its Result is
	// not taken until RunBatch has submitted everything, so from then on the
	// heap alone decides: priority, then slice order.
	var order []int
	var jobs []Job
	for i, p := range []int{9, 0, 5, 0, 5} {
		jobs = append(jobs, quickJob(fmt.Sprintf("p%d-%d", p, i), p))
	}
	results, err := RunBatch(context.Background(), jobs, WithWorkers(1),
		WithNotify(func(u Update) {
			if u.Status == Running {
				order = append(order, u.ID)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 2, 4, 1, 3}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
	for i, r := range results {
		if r.ID != i || r.Name != jobs[i].Name || r.Status != Done {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
}

func TestBatchLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var jobs []Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, quickJob(fmt.Sprintf("j%d", i), i))
	}
	if _, err := RunBatch(context.Background(), jobs, WithWorkers(3)); err != nil {
		t.Fatal(err)
	}
	waitNoGoroutinesSince(t, before)

	// Mid-batch cancellation: two never-finishing jobs hold both workers,
	// the rest are flushed from the queue (or refused at submission).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stepped atomic.Int64
	for i := range jobs {
		jobs[i].Until = 1e9
		jobs[i].New = func() (runner.Solver, error) {
			return &fake{dt: 0.1, sleep: time.Millisecond, onStep: func() {
				if stepped.Add(1) == 4 {
					cancel()
				}
			}}, nil
		}
	}
	results, err := RunBatch(ctx, jobs, WithWorkers(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error %v, want wrapped context.Canceled", err)
	}
	for i, r := range results {
		if r.Status != Cancelled {
			t.Fatalf("job %d: %v after cancellation", i, r.Status)
		}
	}
	waitNoGoroutinesSince(t, before)
}

func TestBatchContextCancelledBeforeCall(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var built atomic.Int64
	var notified []Update
	var jobs []Job
	for i := 0; i < 3; i++ {
		jobs = append(jobs, Job{Name: fmt.Sprintf("dead-%d", i), Until: 1,
			New: func() (runner.Solver, error) {
				built.Add(1)
				return &fake{dt: 0.5}, nil
			}})
	}
	results, err := RunBatch(ctx, jobs, WithWorkers(2),
		WithNotify(func(u Update) { notified = append(notified, u) }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error %v, want wrapped context.Canceled", err)
	}
	if len(results) != len(jobs) || len(notified) != len(jobs) {
		t.Fatalf("%d results, %d updates for %d jobs", len(results), len(notified), len(jobs))
	}
	for i, r := range results {
		if r.ID != i || r.Name != jobs[i].Name || r.Status != Cancelled || r.Report != nil || r.Err != nil {
			t.Fatalf("result %d: %+v", i, r)
		}
		if u := notified[i]; u.ID != i || u.Status != Cancelled {
			t.Fatalf("update %d: %+v", i, u)
		}
	}
	if built.Load() != 0 {
		t.Fatalf("%d solvers built under a dead context", built.Load())
	}
}

func TestSharedWallClockFansOutFairly(t *testing.T) {
	// One worker, four jobs whose steps sleep, and a budget one job could
	// exhaust alone: every job must still take at least one step (the
	// runner's forward-progress guarantee fans out through the batch
	// deadline), rather than the first job starving the tail.
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{
			Name:  fmt.Sprintf("fair-%d", i),
			Until: 1e9,
			New: func() (runner.Solver, error) {
				return &fake{dt: 0.1, sleep: 5 * time.Millisecond}, nil
			},
		}
	}
	results, err := RunBatch(context.Background(), jobs,
		WithWorkers(1), WithWallClock(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Status != Done {
			t.Fatalf("job %d: %v (%v)", i, r.Status, r.Err)
		}
		if r.Report.Steps < 1 {
			t.Fatalf("job %d starved: %d steps", i, r.Report.Steps)
		}
		if r.Report.Reason != runner.ReasonWallClock {
			t.Fatalf("job %d reason %v, want wall-clock", i, r.Report.Reason)
		}
	}
	// The tail job started past the deadline and is clamped to the minimum
	// budget: exactly one step.
	if last := results[len(results)-1]; last.Report.Steps != 1 {
		t.Fatalf("tail job took %d steps under an exhausted budget", last.Report.Steps)
	}
}

func TestJobFailureDoesNotAbortBatch(t *testing.T) {
	sentinel := errors.New("factory boom")
	jobs := []Job{
		{Name: "bad", Until: 1, New: func() (runner.Solver, error) { return nil, sentinel }},
		{Name: "good", Until: 1, New: func() (runner.Solver, error) { return &fake{dt: 0.5}, nil }},
	}
	results, err := RunBatch(context.Background(), jobs, WithWorkers(1))
	if err != nil {
		t.Fatalf("batch error %v; a job failure must not abort the batch", err)
	}
	if results[0].Status != Failed || !errors.Is(results[0].Err, sentinel) {
		t.Fatalf("bad job: %v %v", results[0].Status, results[0].Err)
	}
	if results[1].Status != Done {
		t.Fatalf("good job: %v", results[1].Status)
	}
}

func TestNotifyReportsTransitions(t *testing.T) {
	var mu sync.Mutex
	got := map[string][]Status{}
	jobs := []Job{
		{Name: "a", Until: 1, New: func() (runner.Solver, error) { return &fake{dt: 0.5}, nil }},
		{Name: "b", Until: 1, New: func() (runner.Solver, error) { return nil, errors.New("x") }},
	}
	_, err := RunBatch(context.Background(), jobs, WithWorkers(2),
		WithNotify(func(u Update) {
			mu.Lock()
			got[u.Name] = append(got[u.Name], u.Status)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Status{Running, Done}; !statusSeqEq(got["a"], want) {
		t.Fatalf("job a transitions %v, want %v", got["a"], want)
	}
	if want := []Status{Running, Failed}; !statusSeqEq(got["b"], want) {
		t.Fatalf("job b transitions %v, want %v", got["b"], want)
	}
}

func statusSeqEq(a, b []Status) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBatchValidation(t *testing.T) {
	if _, err := RunBatch(context.Background(), nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := RunBatch(context.Background(), []Job{{Name: "x", Until: 1}}); err == nil {
		t.Fatal("nil factory accepted")
	}
	one := []Job{quickJob("x", 0)}
	if _, err := RunBatch(context.Background(), one, WithWorkers(-1)); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := RunBatch(context.Background(), one, WithWallClock(-time.Second)); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Queued: "queued", Running: "running", Done: "done",
		Failed: "failed", Cancelled: "cancelled", Status(99): "status(99)",
	} {
		if s.String() != want {
			t.Fatalf("%d → %q, want %q", s, s.String(), want)
		}
	}
}
