package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vlasov6d/internal/runner"
)

// acquireLeases acquires one lease per priority, standing in for the
// between-step polls running jobs would make: a background goroutine keeps
// polling already-held leases so waiting acquires can claim the cores those
// polls free, then every lease is polled to convergence.
func acquireLeases(t *testing.T, b *CoreBudget, prios []int) []*Lease {
	t.Helper()
	leases := make([]*Lease, len(prios))
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			mu.Lock()
			for _, l := range leases {
				if l != nil {
					l.Workers()
				}
			}
			mu.Unlock()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for i, p := range prios {
		l, err := b.AcquireClaim(context.Background(), Claim{Priority: p})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		leases[i] = l
		mu.Unlock()
	}
	close(done)
	settle(leases)
	return leases
}

// settle polls every lease a few rounds so shrinks commit and grows claim
// the freed cores — the steady state a set of stepping jobs reaches.
func settle(leases []*Lease) {
	for round := 0; round < 4; round++ {
		for _, l := range leases {
			if l != nil {
				l.Workers()
			}
		}
	}
}

func shares(leases []*Lease) []int {
	out := make([]int, len(leases))
	for i, l := range leases {
		out[i] = l.Workers()
	}
	return out
}

func TestCoreBudgetEqualShares(t *testing.T) {
	b := NewCoreBudget(8)
	leases := acquireLeases(t, b, []int{0, 0, 0})
	got := shares(leases)
	// 8 cores over 3 equal-priority jobs: base 2, the 8%3 = 2 remainder
	// cores to the two earliest.
	want := []int{3, 3, 2}
	sum := 0
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("shares %v, want %v", got, want)
		}
		sum += got[i]
	}
	if sum != b.Total() {
		t.Fatalf("shares sum to %d, want the full budget %d", sum, b.Total())
	}
	if held := b.Held(); held != 8 {
		t.Fatalf("held %d, want 8", held)
	}
}

func TestCoreBudgetPriorityRemainder(t *testing.T) {
	b := NewCoreBudget(7)
	leases := acquireLeases(t, b, []int{0, 5, 0})
	got := shares(leases)
	// base 2, one remainder core: it goes to the priority-5 job even though
	// it acquired second.
	want := []int{2, 3, 2}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("shares %v, want %v", got, want)
		}
	}
}

func TestCoreBudgetFloorOne(t *testing.T) {
	b := NewCoreBudget(2)
	leases := acquireLeases(t, b, []int{0, 0, 0, 0})
	for i, l := range leases {
		if w := l.Workers(); w != 1 {
			t.Fatalf("lease %d holds %d workers, want floor 1", i, w)
		}
	}
}

func TestCoreBudgetRebalanceOnRelease(t *testing.T) {
	b := NewCoreBudget(4)
	leases := acquireLeases(t, b, []int{0, 0})
	if got := shares(leases); got[0] != 2 || got[1] != 2 {
		t.Fatalf("initial shares %v, want [2 2]", got)
	}
	leases[0].Release()
	if w := leases[1].Workers(); w != 4 {
		t.Fatalf("survivor holds %d workers after release, want 4", w)
	}
	if w := leases[0].Workers(); w != 0 {
		t.Fatalf("released lease reports %d workers, want 0", w)
	}
	leases[0].Release() // idempotent
	if live := b.Live(); live != 1 {
		t.Fatalf("live %d, want 1", live)
	}
}

func TestCoreBudgetAcquireCancellable(t *testing.T) {
	b := NewCoreBudget(2)
	// Hold both cores and never poll: a second acquire (2 live ≤ 2 cores,
	// nothing free) must block, and cancelling its context must unblock it
	// with the registration undone.
	l1, err := b.AcquireClaim(context.Background(), Claim{})
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Release()
	if w := l1.Workers(); w != 2 {
		t.Fatalf("sole lease holds %d workers, want 2", w)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := b.AcquireClaim(ctx, Claim{}); err == nil {
		t.Fatal("blocked acquire returned without error under a cancelled context")
	}
	if live := b.Live(); live != 1 {
		t.Fatalf("live %d after cancelled acquire, want 1", live)
	}
	// The cancelled waiter's registration must not leave a stale target:
	// the holder polls back up to the full budget.
	if w := l1.Workers(); w != 2 {
		t.Fatalf("holder has %d workers after cancelled acquire, want 2", w)
	}
}

// budgetedFake is a Solver implementing runner.WorkerBudgeted: it records
// the share the runner last applied and runs a per-step hook.
type budgetedFake struct {
	t, dt   float64
	workers atomic.Int64
	onStep  func(f *budgetedFake)
}

func (f *budgetedFake) SetWorkers(n int) { f.workers.Store(int64(n)) }
func (f *budgetedFake) Step(dt float64) error {
	if f.onStep != nil {
		f.onStep(f)
	}
	f.t += dt
	return nil
}
func (f *budgetedFake) SuggestDT() float64 { return f.dt }
func (f *budgetedFake) Clock() float64     { return f.t }
func (f *budgetedFake) Diagnostics() runner.Diagnostics {
	return runner.Diagnostics{Clock: f.t, Time: f.t, Mass: 1}
}

// TestBatchBudgetNeverOversubscribes is the acceptance gate: four concurrent
// jobs on a 4-core budget, and at no instant do the intra-step workers of
// the stepping jobs sum past the budget. Each fake adds its applied share
// on step entry and removes it on exit, so the tracked peak is exactly the
// number of cores the jobs believed they could use simultaneously.
func TestBatchBudgetNeverOversubscribes(t *testing.T) {
	const total = 4
	var live, peak atomic.Int64
	var jobs []Job
	for i := 0; i < total; i++ {
		jobs = append(jobs, Job{
			Name:  fmt.Sprintf("j%d", i),
			Until: 1,
			New: func() (runner.Solver, error) {
				return &budgetedFake{dt: 0.05, onStep: func(f *budgetedFake) {
					w := f.workers.Load()
					if w < 1 {
						t.Errorf("job stepping with %d workers; the lease floor is 1", w)
					}
					cur := live.Add(w)
					for {
						p := peak.Load()
						if cur <= p || peak.CompareAndSwap(p, cur) {
							break
						}
					}
					time.Sleep(200 * time.Microsecond)
					live.Add(-w)
				}}, nil
			},
		})
	}
	results, err := RunBatch(context.Background(), jobs,
		WithWorkers(total), WithCoreBudget(total))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Status != Done {
			t.Fatalf("job %s: %v (%v)", r.Name, r.Status, r.Err)
		}
	}
	if p := peak.Load(); p > total {
		t.Fatalf("peak concurrent intra-step workers %d exceeds the %d-core budget", p, total)
	}
}

// TestStreamBudgetRebalanceDuringDispatch exercises the stream layer's
// continuously churning live set under the race detector: a long-running
// job keeps stepping while short jobs are submitted, run and finish, and
// the budget invariant must hold throughout. The long job only finishes
// once a between-step poll has handed it the whole budget back — the
// mid-run resize observed by a running job.
func TestStreamBudgetRebalanceDuringDispatch(t *testing.T) {
	const total = 4
	ctx := context.Background()
	var live, peak atomic.Int64
	track := func(f *budgetedFake) {
		w := f.workers.Load()
		cur := live.Add(w)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		live.Add(-w)
	}
	s, err := NewStream(ctx, WithWorkers(total), WithCoreBudget(total))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan map[string]Result)
	go func() {
		out := make(map[string]Result)
		for r := range s.Results() {
			out[r.Name] = r
		}
		done <- out
	}()

	var sawShrink, sawGrow atomic.Bool
	long := Job{
		Name:  "long",
		Until: 1,
		New: func() (runner.Solver, error) {
			f := &budgetedFake{dt: 1e-6}
			f.onStep = func(f *budgetedFake) {
				track(f)
				w := f.workers.Load()
				if w < total {
					// Shares rebalanced away while the short jobs live.
					sawShrink.Store(true)
				}
				if sawShrink.Load() && w == total {
					// The queue drained and a between-step poll handed the
					// whole budget back: the mid-run grow was observed.
					sawGrow.Store(true)
					f.t = 1 // reach Until on this step
				}
				time.Sleep(20 * time.Microsecond)
			}
			return f, nil
		},
	}
	if err := s.Submit(long); err != nil {
		t.Fatal(err)
	}
	// Churn: short jobs submitted while the long job runs, in waves so the
	// live set both grows and drains repeatedly.
	for wave := 0; wave < 3; wave++ {
		for i := 0; i < total; i++ {
			short := Job{
				Name:  fmt.Sprintf("short-%d-%d", wave, i),
				Until: 1,
				New: func() (runner.Solver, error) {
					return &budgetedFake{dt: 0.2, onStep: track}, nil
				},
			}
			if err := s.Submit(short); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.Close()
	results := <-done
	for name, r := range results {
		if r.Status != Done {
			t.Fatalf("job %s: %v (%v)", name, r.Status, r.Err)
		}
	}
	if len(results) != 1+3*total {
		t.Fatalf("%d results, want %d", len(results), 1+3*total)
	}
	if p := peak.Load(); p > total {
		t.Fatalf("peak concurrent intra-step workers %d exceeds the %d-core budget", p, total)
	}
	if !sawShrink.Load() {
		t.Fatal("long job never saw its share rebalanced down while short jobs ran")
	}
	if !sawGrow.Load() {
		t.Fatal("long job never observed the mid-run share increase between steps")
	}
}

// TestBudgetRetryReleasesCores: a job backing off between retry attempts
// must not hold its lease, so the other job can poll its way to the whole
// budget while the failing one sleeps. The steady job keeps stepping until
// it observes the full budget — termination is the assertion (the flaky
// job's lease exists only during its instant factory attempts).
func TestBudgetRetryReleasesCores(t *testing.T) {
	shortBackoff(t, 20*time.Millisecond)
	const total = 4
	fails := 0
	jobs := []Job{
		{
			Name:  "flaky",
			Until: 1,
			New: func() (runner.Solver, error) {
				if fails < 2 {
					fails++
					return nil, runner.MarkRetryable(fmt.Errorf("transient %d", fails))
				}
				return &budgetedFake{dt: 1}, nil
			},
		},
		{
			Name:  "steady",
			Until: 1,
			New: func() (runner.Solver, error) {
				f := &budgetedFake{dt: 1e-6}
				f.onStep = func(f *budgetedFake) {
					w := f.workers.Load()
					if w > total {
						t.Errorf("steady job stepped with %d workers on a %d-core budget", w, total)
					}
					if w == total {
						f.t = 1 // full budget reclaimed: finish
					}
					time.Sleep(50 * time.Microsecond)
				}
				return f, nil
			},
		},
	}
	results, err := RunBatch(context.Background(), jobs,
		WithWorkers(2), WithCoreBudget(total),
		WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Status != Done {
			t.Fatalf("job %s: %v (%v)", r.Name, r.Status, r.Err)
		}
	}
}

// TestCoreBudgetOptionValidation rejects a negative budget.
func TestCoreBudgetOptionValidation(t *testing.T) {
	if _, err := NewStream(context.Background(), WithCoreBudget(-1)); err == nil {
		t.Fatal("negative core budget accepted")
	}
}
