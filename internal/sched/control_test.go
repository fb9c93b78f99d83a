package sched

// Tests for the control-plane surface of the scheduler: per-submission
// cancellation, per-job retry overrides and budgeted construction — the hooks the HTTP service layer (internal/serve) is built
// on. Everything here runs in milliseconds and under -race in CI.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"vlasov6d/internal/runner"
)

func TestJobValidate(t *testing.T) {
	mk := func() (runner.Solver, error) { return &fake{dt: 1}, nil }
	mkB := func(runner.WorkerLease) (runner.Solver, error) { return &fake{dt: 1}, nil }
	neg := -1
	cases := []struct {
		name string
		job  Job
		ok   bool
	}{
		{"no factory", Job{Name: "a"}, false},
		{"both factories", Job{Name: "a", New: mk, NewBudgeted: mkB}, false},
		{"budgeted only", Job{Name: "a", NewBudgeted: mkB}, true},
		{"negative retries", Job{Name: "a", New: mk, Retries: &neg}, false},
		{"plain", Job{Name: "a", New: mk}, true},
	}
	for _, c := range cases {
		if err := c.job.validate(); (err == nil) != c.ok {
			t.Errorf("%s: validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestStreamSubmitIDAndResultID(t *testing.T) {
	s, err := NewStream(context.Background(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("j%d", i)
		id, err := s.SubmitID(quickJob(name, 0))
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("submission %d got id %d", i, id)
		}
		want[id] = name
	}
	s.Close()
	for r := range s.Results() {
		if want[r.ID] != r.Name {
			t.Fatalf("result id %d carries name %q, want %q", r.ID, r.Name, want[r.ID])
		}
		delete(want, r.ID)
	}
	if len(want) != 0 {
		t.Fatalf("missing results for %v", want)
	}
}

func TestStreamCancelQueued(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s, err := NewStream(context.Background(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.SubmitID(Job{
		Name:  "blocker",
		Until: 1,
		New: func() (runner.Solver, error) {
			return &fake{dt: 1, onStep: func() {
				once.Do(func() { close(started) })
				<-release
			}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var built bool
	victim, err := s.SubmitID(Job{
		Name:  "victim",
		Until: 1,
		New: func() (runner.Solver, error) {
			built = true
			return &fake{dt: 1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(victim) {
		t.Fatal("Cancel(queued) reported no effect")
	}
	if s.Cancel(victim) {
		t.Fatal("second Cancel on a decided cancellation reported effect")
	}
	close(release)
	s.Close()
	for _, r := range drainAll(s) {
		if r.ID == victim {
			if r.Status != Cancelled {
				t.Fatalf("victim result %+v", r)
			}
		} else if r.Status != Done {
			t.Fatalf("blocker result %+v", r)
		}
	}
	if built {
		t.Fatal("cancelled-while-queued job constructed its solver")
	}
}

func TestStreamCancelQueuedFreesCheckpointKey(t *testing.T) {
	// Cancelling a queued job frees its checkpoint key immediately: the
	// corrected resubmission must not wait for a worker to pop the stale
	// entry — and when the stale entry IS popped, it must not free the
	// key the resubmitted job now holds.
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s, err := NewStream(context.Background(), WithWorkers(1), WithJobCheckpoints(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ckptJob := func(name string) Job {
		return Job{Name: name, Until: 1,
			New: func() (runner.Solver, error) { return &ckptFake{fake{dt: 1}}, nil }}
	}
	blocker := Job{
		Name:  "blocker",
		Until: 1,
		New: func() (runner.Solver, error) {
			return &ckptFake{fake{dt: 1, onStep: func() {
				once.Do(func() { close(started) })
				<-release
			}}}, nil
		},
	}
	if _, err := s.SubmitID(blocker); err != nil {
		t.Fatal(err)
	}
	<-started
	victim, err := s.SubmitID(ckptJob("dup"))
	if err != nil {
		t.Fatal(err)
	}
	// While queued, the name is taken.
	if _, err := s.SubmitID(ckptJob("dup")); err == nil {
		t.Fatal("duplicate checkpoint key accepted while queued")
	}
	if !s.Cancel(victim) {
		t.Fatal("cancel failed")
	}
	// The decided cancellation frees the key before any worker pops it.
	second, err := s.SubmitID(ckptJob("dup"))
	if err != nil {
		t.Fatalf("resubmission after queued-cancel rejected: %v", err)
	}
	// And the second holder's key survives the stale entry's eventual pop:
	// a third submission while the second is live must still be rejected.
	if _, err := s.SubmitID(ckptJob("dup")); err == nil {
		t.Fatal("duplicate checkpoint key accepted while the resubmission is live")
	}
	close(release)
	s.Close()
	statuses := map[int]Status{}
	for r := range s.Results() {
		statuses[r.ID] = r.Status
	}
	if statuses[victim] != Cancelled || statuses[second] != Done {
		t.Fatalf("victim %v, resubmission %v", statuses[victim], statuses[second])
	}
}

func TestStreamCancelRunning(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	s, err := NewStream(context.Background(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	// Slow many-step job: cancellation lands between steps.
	id, err := s.SubmitID(Job{
		Name:  "long",
		Until: 1e9,
		New: func() (runner.Solver, error) {
			return &fake{dt: 1, sleep: time.Millisecond, onStep: func() {
				once.Do(func() { close(started) })
			}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !s.Cancel(id) {
		t.Fatal("Cancel(running) reported no effect")
	}
	s.Close()
	results := drainAll(s)
	if len(results) != 1 {
		t.Fatalf("%d results", len(results))
	}
	r := results[0]
	if r.ID != id || r.Status != Cancelled {
		t.Fatalf("cancelled running job result %+v", r)
	}
	if !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("cancelled running job err = %v", r.Err)
	}
	// The stream itself is still healthy: later submissions run.
	if s.Cancel(999) {
		t.Fatal("Cancel(unknown id) reported effect")
	}
}

func TestStreamCancelDoesNotTouchSiblings(t *testing.T) {
	// Cancelling one running job must not disturb the other running job or
	// the stream's intake.
	type gate struct {
		started chan struct{}
		once    sync.Once
	}
	gates := []*gate{{started: make(chan struct{})}, {started: make(chan struct{})}}
	var mu sync.Mutex
	last := map[int]Status{}
	s, err := NewStream(context.Background(), WithWorkers(2), WithNotify(func(u Update) {
		mu.Lock()
		last[u.ID] = u.Status
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 2)
	for i := range gates {
		g := gates[i]
		ids[i], err = s.SubmitID(Job{
			Name:  fmt.Sprintf("long-%d", i),
			Until: 1e9,
			New: func() (runner.Solver, error) {
				return &fake{dt: 1, sleep: time.Millisecond, onStep: func() {
					g.once.Do(func() { close(g.started) })
				}}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	<-gates[0].started
	<-gates[1].started
	if !s.Cancel(ids[0]) {
		t.Fatal("cancel failed")
	}
	// The sibling keeps running until its own cancellation.
	time.Sleep(5 * time.Millisecond)
	mu.Lock()
	sibling := last[ids[1]]
	mu.Unlock()
	if sibling != Running {
		t.Fatalf("sibling status %v after cancelling job 0", sibling)
	}
	s.Cancel(ids[1])
	s.Close()
	for _, r := range drainAll(s) {
		if r.Status != Cancelled {
			t.Fatalf("result %+v, want cancelled", r)
		}
	}
}

func TestJobRetriesOverride(t *testing.T) {
	shortBackoff(t, time.Millisecond)
	// Stream default: no retries. The override job asks for 2 and succeeds
	// on its third attempt; a sibling without the override fails fast.
	var overrideAttempts, plainAttempts int
	transient := func(n *int, failures int) func() (runner.Solver, error) {
		return func() (runner.Solver, error) {
			*n++
			if *n <= failures {
				return nil, runner.MarkRetryable(errors.New("flaky"))
			}
			return &fake{dt: 1}, nil
		}
	}
	s, err := NewStream(context.Background(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	two := 2
	idOverride, _ := s.SubmitID(Job{Name: "override", Until: 1, Retries: &two,
		New: transient(&overrideAttempts, 2)})
	idPlain, _ := s.SubmitID(Job{Name: "plain", Until: 1,
		New: transient(&plainAttempts, 2)})
	s.Close()
	for r := range s.Results() {
		switch r.ID {
		case idOverride:
			if r.Status != Done || r.Attempt != 3 {
				t.Fatalf("override result %+v", r)
			}
		case idPlain:
			if r.Status != Failed || r.Attempt != 1 {
				t.Fatalf("plain result %+v", r)
			}
		}
	}
	// The reverse: a scheduler-wide retry policy silenced per-job.
	s2, err := NewStream(context.Background(), WithWorkers(1),
		WithRetries(5))
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	attempts := 0
	s2.Submit(Job{Name: "never-retry", Until: 1, Retries: &zero,
		New: transient(&attempts, 99)})
	s2.Close()
	for r := range s2.Results() {
		if r.Status != Failed || r.Attempt != 1 {
			t.Fatalf("never-retry result %+v", r)
		}
	}
}

func TestNewBudgetedFactoryReceivesLease(t *testing.T) {
	// Under WithCoreBudget the factory sees the job's lease before the
	// first step — construction is budgeted, the ROADMAP's "last
	// oversubscription window".
	var factoryShare int
	s, err := NewStream(context.Background(), WithWorkers(1), WithCoreBudget(4))
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(Job{
		Name:  "budgeted",
		Until: 1,
		NewBudgeted: func(lease runner.WorkerLease) (runner.Solver, error) {
			if lease == nil {
				return nil, errors.New("nil lease under an active budget")
			}
			factoryShare = lease.Workers()
			return &fake{dt: 1}, nil
		},
	})
	s.Close()
	for r := range s.Results() {
		if r.Status != Done {
			t.Fatalf("budgeted job result %+v", r)
		}
	}
	if factoryShare != 4 {
		t.Fatalf("factory saw share %d, want the whole 4-core budget", factoryShare)
	}

	// Without a budget the lease is a true nil.
	var sawNil bool
	s2, err := NewStream(context.Background(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	s2.Submit(Job{
		Name:  "unbudgeted",
		Until: 1,
		NewBudgeted: func(lease runner.WorkerLease) (runner.Solver, error) {
			sawNil = lease == nil
			return &fake{dt: 1}, nil
		},
	})
	s2.Close()
	drainAll(s2)
	if !sawNil {
		t.Fatal("factory did not see a nil lease without a budget")
	}
}
