// The stream: a long-lived, channel-fed scheduler, and the package's one
// worker pool. A Stream accepts Submit calls for as long as it is open — the
// shape of a service that feeds simulation work to a pool continuously —
// and RunBatch (sched.go) is the client that submits a fixed slice and
// closes it.
package sched

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"vlasov6d/internal/runner"
)

// ErrStreamClosed is returned by Submit after Close.
var ErrStreamClosed = errors.New("sched: stream closed")

// Stream is a long-lived scheduler fed one Submit at a time. Construct
// with NewStream; the worker pool starts immediately and dispatches from a
// priority heap (higher Job.Priority first, submission order within a
// priority).
//
// Lifecycle:
//
//   - Submit enqueues a job; it fails with ErrStreamClosed after Close and
//     with the context error once the stream's context is cancelled.
//   - Close stops intake. Workers drain everything already queued, then the
//     Results channel closes — the graceful shutdown of a service.
//   - Cancelling the context stops running jobs through the runner's own
//     cancellation path, reports still-queued jobs Cancelled, and then
//     closes Results — the fast shutdown. No goroutines are left behind in
//     either case.
//
// Results must be consumed: workers deliver to the Results channel and
// will block (a natural back-pressure) if nobody reads it. What arrives
// there is the terminal Update the WithNotify callback was just handed: one
// value, to be applied from either, never from both. Retries,
// per-job checkpoint directories and auto-resume follow the scheduler
// options (see the package comment).
type Stream struct {
	opts options
	ctx  context.Context
	// budget is the stream-lifetime core budget (nil without
	// WithCoreBudget): the live-job set it divides over churns with every
	// dispatch and completion.
	budget *CoreBudget

	mu      sync.Mutex
	cond    *sync.Cond
	pending jobHeap
	closed  bool
	seq     int
	// active holds the checkpoint keys of queued + running jobs (only under
	// WithJobCheckpoints): two live jobs sharing a key would silently
	// cross-resume, so Submit rejects the second. Re-submitting a key after
	// its job finishes is allowed — that is the resume path.
	active map[string]bool
	// live holds every queued, running or retrying submission by id — what
	// Cancel needs. An entry is dropped the moment its job turns terminal:
	// the stream keeps no history (every transition reaches WithNotify,
	// every outcome Results), so an always-on stream's memory is bounded by
	// its live set.
	live map[int]*streamJob

	notifyMu sync.Mutex

	results chan Result
	done    chan struct{} // closed after all workers exit and results closes
}

// streamJob is one live submission: the job, its submission sequence number
// (the FIFO tiebreak within a priority and the Update id), and the wall
// time it entered the queue (the start of its "queue" phase). The per-job
// context is derived from the stream's at Submit time; Cancel fires it,
// which stops the job wherever it is — still queued (the worker that
// eventually pops it reports Cancelled without running it) or mid-run (the
// runner's own cancellation path unwinds it between steps).
type streamJob struct {
	job    Job
	seq    int
	at     time.Time
	ctx    context.Context
	cancel context.CancelFunc
	queued bool // not yet popped by a worker
	// key is the checkpoint key this job holds in active ("" without
	// WithJobCheckpoints, and again once released). Cancelling a queued job
	// frees its key immediately (so the name is resubmittable before a
	// worker pops the stale entry); clearing it keeps the eventual pop from
	// releasing the key a *resubmitted* job now holds.
	key string
}

// jobHeap is a max-heap on Priority with FIFO order within a priority.
type jobHeap []*streamJob

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].job.Priority != h[j].job.Priority {
		return h[i].job.Priority > h[j].job.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*streamJob)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// NewStream starts a stream scheduler: `workers` goroutines (default
// GOMAXPROCS) pulling from the priority queue until Close drains it or ctx
// cancels it. The options are the same as RunBatch's; WithWallClock
// anchors the shared budget at NewStream time.
func NewStream(ctx context.Context, opts ...Option) (*Stream, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return newStream(ctx, o), nil
}

// newStream starts the pool over already-validated options.
func newStream(ctx context.Context, o options) *Stream {
	var deadline time.Time
	if o.wall > 0 {
		deadline = time.Now().Add(o.wall)
	}
	s := &Stream{
		opts:    o,
		ctx:     ctx,
		live:    make(map[int]*streamJob),
		results: make(chan Result),
		done:    make(chan struct{}),
	}
	if o.ckptDir != "" {
		s.active = make(map[string]bool)
	}
	if o.budgetSet {
		s.budget = NewCoreBudget(o.budget)
	}
	s.cond = sync.NewCond(&s.mu)

	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(deadline)
		}()
	}
	go func() {
		wg.Wait()
		close(s.results)
		close(s.done)
	}()
	// Cancellation must wake workers parked on the condvar. The watcher
	// exits with the pool, so an uncancelled long-lived stream does not
	// leak it past Close.
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		case <-s.done:
		}
	}()
	return s
}

// Submit enqueues a job for dispatch. It returns ErrStreamClosed after
// Close, the context error once the stream's context is cancelled, and a
// validation error for a job without a factory or (under
// WithJobCheckpoints) a checkpoint key already queued or running. Safe for
// concurrent use.
func (s *Stream) Submit(job Job) error {
	_, err := s.SubmitID(job)
	return err
}

// SubmitID is Submit returning the submission id: the handle Cancel and
// Update.ID identify this submission by. Ids are assigned in
// submission order starting at zero and are never reused.
func (s *Stream) SubmitID(job Job) (int, error) {
	if err := job.validate(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrStreamClosed
	}
	if err := s.ctx.Err(); err != nil {
		return 0, fmt.Errorf("sched: stream context cancelled: %w", err)
	}
	sj := &streamJob{job: job, seq: s.seq, at: time.Now(), queued: true}
	if s.active != nil {
		sj.key = checkpointKey(job.Tenant, job.Name)
		if s.active[sj.key] {
			return 0, fmt.Errorf("sched: job %q: checkpoint key %q already queued or running", job.Name, sj.key)
		}
		s.active[sj.key] = true
	}
	sj.ctx, sj.cancel = context.WithCancel(s.ctx)
	s.live[sj.seq] = sj
	heap.Push(&s.pending, sj)
	s.seq++
	s.cond.Signal()
	return sj.seq, nil
}

// Cancel stops one submission by id: a queued job is reported Cancelled
// without ever constructing its solver (its Result is delivered when a
// worker pops it from the queue), a running job is stopped through the
// runner's own cancellation path at its next step boundary. Cancel reports
// whether it took effect — false for an unknown id, a job already in a
// terminal state, or one already cancelled. Cancelling a job during retry
// backoff cancels the retry.
func (s *Stream) Cancel(id int) bool {
	s.mu.Lock()
	sj, ok := s.live[id]
	if !ok || sj.ctx.Err() != nil {
		s.mu.Unlock()
		return false
	}
	// A still-queued job's checkpoint key frees now, not when a worker
	// eventually pops the stale heap entry: the cancellation is decided,
	// so the name must be immediately resubmittable.
	if sj.queued {
		s.freeKeyLocked(sj)
	}
	s.mu.Unlock()
	// Fire outside the lock: the watcher goroutines context cancellation
	// wakes may themselves take s.mu.
	sj.cancel()
	return true
}

// freeKeyLocked releases a job's checkpoint key exactly once. Callers hold
// s.mu.
func (s *Stream) freeKeyLocked(sj *streamJob) {
	if sj.key != "" {
		delete(s.active, sj.key)
		sj.key = ""
	}
}

// Budget returns the stream's core budget (nil without WithCoreBudget) —
// the live Total/Held/Live counters a service exports as metrics.
func (s *Stream) Budget() *CoreBudget {
	return s.budget
}

// Close stops intake. Already-queued jobs still run to completion (drain);
// once the queue empties the workers exit and Results closes. Close is
// idempotent and returns immediately — wait on Results for the drain.
func (s *Stream) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Results returns the delivery channel: one Result per submitted job, in
// completion order. It closes after Close (once the queue drains) or after
// context cancellation (once queued jobs are flushed as Cancelled).
func (s *Stream) Results() <-chan Result {
	return s.results
}

// Pending returns the number of submitted jobs not yet picked up by a
// worker — the queue depth a service monitors.
func (s *Stream) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// work is one pool goroutine: pop the highest-priority job, execute it
// (with the shared retry/checkpoint executor), deliver its result; on
// cancellation flush the remaining queue as Cancelled.
func (s *Stream) work(deadline time.Time) {
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed && s.ctx.Err() == nil {
			s.cond.Wait()
		}
		if s.ctx.Err() != nil {
			// Fast shutdown: this worker flushes whatever is still queued
			// (the first worker in grabs everything; the rest see an empty
			// heap and exit).
			flush := s.pending
			s.pending = nil
			for _, sj := range flush {
				sj.cancel()
				s.freeKeyLocked(sj)
				delete(s.live, sj.seq)
			}
			s.mu.Unlock()
			for _, sj := range flush {
				s.deliver(Update{ID: sj.seq, Name: sj.job.Name, Status: Cancelled})
			}
			return
		}
		if len(s.pending) == 0 { // closed and drained
			s.mu.Unlock()
			return
		}
		sj := heap.Pop(&s.pending).(*streamJob)
		sj.queued = false
		s.mu.Unlock()
		s.runOne(sj, deadline)
	}
}

// runOne executes one popped job and delivers its terminal result. The job
// runs under its own context (derived from the stream's at Submit time), so
// Cancel(id) stops exactly this submission: before dispatch it short-cuts
// executeJob's entry check, mid-run it unwinds the runner between steps.
func (s *Stream) runOne(sj *streamJob, deadline time.Time) {
	// Release the per-job context's resources once the job is terminal; a
	// long-lived service submits indefinitely and each WithCancel context
	// otherwise stays parented to the stream context until shutdown.
	defer sj.cancel()
	var emit phaseEmitter
	if s.opts.phaseNotify != nil {
		emit = func(phase string, attempt int, start, end time.Time) {
			s.opts.phaseNotify(PhaseEvent{Index: sj.seq, Name: sj.job.Name,
				Phase: phase, Attempt: attempt, Start: start, End: end})
		}
		// The queue phase closed the moment the worker popped this job off
		// the heap (runOne is entered immediately after).
		emit("queue", 0, sj.at, time.Now())
	}
	executeJob(sj.ctx, &s.opts, s.budget, sj.job, deadline,
		func(st Status, attempt int, rep *runner.Report, err error) {
			if st.Terminal() {
				// Release the checkpoint key before delivery, so a consumer
				// reacting to the result can immediately re-submit the job.
				s.mu.Lock()
				s.freeKeyLocked(sj)
				delete(s.live, sj.seq)
				s.mu.Unlock()
			}
			s.deliver(Update{ID: sj.seq, Name: sj.job.Name, Status: st,
				Attempt: attempt, Report: rep, Err: err})
		}, emit)
}

// deliver notifies one transition and, when it is terminal, sends the same
// value on Results.
func (s *Stream) deliver(u Update) {
	s.notify(u)
	if u.Status.Terminal() {
		s.results <- u
	}
}

// notify serialises the WithNotify callback across workers (the callback
// needs no locking of its own).
func (s *Stream) notify(u Update) {
	fn := s.opts.notify
	if fn == nil {
		return
	}
	s.notifyMu.Lock()
	fn(u)
	s.notifyMu.Unlock()
}
