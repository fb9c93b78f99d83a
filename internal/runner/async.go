// Async observer pipeline: diagnostics delivery and checkpoint I/O off the
// hot step loop.
//
// The paper charges 733 s of the 1.92 h H1024 run to I/O and diagnostics
// that sit on the step path. With WithAsyncObserver the driver's hot loop
// only ever *enqueues*: each completed step posts a value snapshot of the
// solver's Diagnostics (and, at the checkpoint cadence, a captured state
// writer) onto a bounded queue, and a single pipeline goroutine invokes the
// observer and performs the snapshot I/O while the solver computes the next
// step.
//
// Back-pressure is selectable. With Block (the default) a full queue stalls
// the step loop until the pipeline catches up — nothing is ever lost, and
// the run degrades to synchronous speed under a persistently slow consumer.
// With DropOldest a full queue evicts its oldest *observation* to make room,
// so the step loop never waits on diagnostics; the number of evicted
// observations is reported in Report.DroppedObservations. Checkpoint events
// are never dropped under either policy: a checkpoint enqueue may evict
// observations (DropOldest) or wait for space, but the snapshot itself is
// always written.
//
// On every exit path — target reached, budget exhausted, step error,
// context cancellation — Run closes the pipeline and waits for it to drain
// completely, so every enqueued observation is delivered and every enqueued
// checkpoint is on disk before Run returns.
package runner

import (
	"io"
	"sync"
)

// AsyncObserver is the off-thread diagnostics callback of WithAsyncObserver.
// Unlike the synchronous Observer it receives a Diagnostics value snapshot
// rather than the live Solver: the solver is already mutating under the next
// step when the callback runs, so the pipeline hands it only data captured
// on the step path. Returning a non-nil error aborts the run (the hot loop
// notices before its next step).
type AsyncObserver func(step int, d Diagnostics) error

// Backpressure selects what a full async queue does to the step loop.
type Backpressure int

const (
	// Block stalls the enqueue (and hence the step loop) until the pipeline
	// frees a slot. Lossless; a persistently slow observer degrades the run
	// to synchronous speed but never loses an observation.
	Block Backpressure = iota
	// DropOldest evicts the oldest queued observation to make room, so the
	// step loop never waits on diagnostics. Checkpoints are never evicted.
	DropOldest
)

func (b Backpressure) String() string {
	if b == DropOldest {
		return "drop-oldest"
	}
	return "block"
}

// DefaultAsyncBuffer is the queue capacity used when WithAsyncBuffer is not
// given.
const DefaultAsyncBuffer = 64

type asyncOptions struct {
	buffer     int
	policy     Backpressure
	dropNotify func(dropped int64)
}

// AsyncOption tunes the async observer pipeline.
type AsyncOption func(*asyncOptions)

// WithAsyncBuffer sets the pipeline queue capacity (default
// DefaultAsyncBuffer). Must be ≥ 1.
func WithAsyncBuffer(n int) AsyncOption {
	return func(o *asyncOptions) { o.buffer = n }
}

// WithBackpressure selects the full-queue policy (default Block).
func WithBackpressure(p Backpressure) AsyncOption {
	return func(o *asyncOptions) { o.policy = p }
}

// WithDropNotify reports DropOldest evictions while the run is still live:
// fn receives the number of observations evicted since its previous call.
// Report.DroppedObservations only totals the loss after the run — a
// monitoring plane streaming diagnostics to remote watchers needs to know
// *during* the run that its view turned lossy, so it can mark the gap
// instead of presenting a seamless-but-wrong sequence. fn runs on the
// pipeline goroutine (never the hot step loop), before the delivery that
// follows the eviction, and is skipped entirely under Block (which never
// drops).
func WithDropNotify(fn func(dropped int64)) AsyncOption {
	return func(o *asyncOptions) { o.dropNotify = fn }
}

// WithAsyncObserver starts the async pipeline for the run and delivers a
// Diagnostics snapshot to obs after every completed step, off the step
// path. obs may be nil: the pipeline still starts, which routes checkpoint
// I/O through it (see CheckpointCapturer) without any observer traffic.
func WithAsyncObserver(obs AsyncObserver, aopts ...AsyncOption) Option {
	return func(o *options) {
		o.asyncObs = obs
		o.async = true
		o.asyncOpts = asyncOptions{buffer: DefaultAsyncBuffer, policy: Block}
		for _, ao := range aopts {
			ao(&o.asyncOpts)
		}
	}
}

// CheckpointCapturer is implemented by Checkpointer solvers that can capture
// a self-contained value snapshot of their state, cheaply, on the step path.
// CaptureCheckpoint returns a write function closed over the captured state;
// the pipeline goroutine calls it while the solver keeps stepping, so the
// returned closure must not share mutable state with the live solver (deep
// copy — an O(state) memcpy is the price of overlapping the much more
// expensive encode+checksum+write with compute).
//
// When the async pipeline is active and the solver implements
// CheckpointCapturer, WithCheckpoint snapshots ride the pipeline; otherwise
// they are written synchronously on the step path as usual.
type CheckpointCapturer interface {
	CaptureCheckpoint() (write func(w io.Writer) (int64, error), err error)
}

// event is one unit of pipeline work: an observation (ckpt == nil) or a
// captured checkpoint write.
type event struct {
	step  int
	diag  Diagnostics
	clock float64
	ckpt  func(w io.Writer) (int64, error)
}

// pipeline is the bounded queue plus its single consumer goroutine. A
// mutex/condvar ring rather than a channel, because DropOldest must evict
// from the head while checkpoint events stay pinned — a channel cannot
// re-queue a received element ahead of the rest.
type pipeline struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []event
	closed bool
	err    error // first observer/checkpoint error; set once

	o *options // the run's options, read-only once the consumer starts

	// Consumer-side results, merged into the Report after drain.
	written  []string
	bytes    int64
	dropped  int64
	notified int64 // drops already reported through dropNotify

	done chan struct{}
}

func newPipeline(o *options) *pipeline {
	p := &pipeline{o: o, done: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	go p.consume()
	return p
}

// failed returns the first error recorded by the consumer, if any. The hot
// loop polls it each step so an async observer error aborts the run within
// one step, mirroring the synchronous contract.
func (p *pipeline) failed() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// enqueue posts ev, applying the back-pressure policy. It returns the first
// pipeline error once one is recorded (the event is discarded then — the
// run is aborting anyway).
func (p *pipeline) enqueue(ev event) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.err != nil {
			return p.err
		}
		if len(p.queue) < p.o.asyncOpts.buffer {
			break
		}
		if p.o.asyncOpts.policy == DropOldest {
			// Evict the oldest observation; checkpoints are pinned. Only if
			// the queue is all checkpoints does the enqueue wait.
			if i := p.oldestObservation(); i >= 0 {
				p.queue = append(p.queue[:i], p.queue[i+1:]...)
				p.dropped++
				break
			}
		}
		p.cond.Wait()
	}
	p.queue = append(p.queue, ev)
	p.cond.Broadcast()
	return nil
}

// oldestObservation returns the index of the first non-checkpoint event, or
// -1. Callers hold mu.
func (p *pipeline) oldestObservation() int {
	for i := range p.queue {
		if p.queue[i].ckpt == nil {
			return i
		}
	}
	return -1
}

// close marks the queue complete and waits for the consumer to drain it.
func (p *pipeline) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	<-p.done
}

// consume is the pipeline goroutine: pop, deliver, repeat until closed and
// drained. After the first error it keeps popping (so a blocked producer
// wakes) but stops delivering.
func (p *pipeline) consume() {
	defer close(p.done)
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		ev := p.queue[0]
		p.queue = p.queue[1:]
		failed := p.err != nil
		newDrops := p.dropped - p.notified
		p.notified = p.dropped
		p.cond.Broadcast()
		p.mu.Unlock()

		if failed {
			continue
		}
		// Surface evictions before the event that follows them, so a live
		// consumer can mark the gap at the position it actually occurred.
		if newDrops > 0 && p.o.asyncOpts.dropNotify != nil {
			p.o.asyncOpts.dropNotify(newDrops)
		}
		var err error
		if ev.ckpt != nil {
			// ev.step counts from 0; the snapshot follows that step.
			err = p.o.writeCheckpoint(ev.step+1, ev.clock, ev.ckpt, &p.written, &p.bytes)
		} else if p.o.asyncObs != nil {
			err = p.o.asyncObs(ev.step, ev.diag)
		}
		if err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = err
			}
			p.cond.Broadcast()
			p.mu.Unlock()
		}
	}
}
