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
// The queue holds asyncBuffer events and has one policy: when it is full,
// the oldest *observation* is dropped to make room, so the step loop never
// waits on diagnostics. Each observation carries its step number, so an
// observer reads a drop off the jump between two deliveries, and
// Report.DroppedObservations totals the drops of the run, those after the
// last delivery included. Checkpoint events are never dropped: a
// checkpoint enqueue evicts an observation for its slot, and waits for the
// pipeline only when the queue holds nothing but checkpoints — the
// snapshot itself is always written.
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

// asyncBuffer is the pipeline's queue capacity, in events.
const asyncBuffer = 256

// WithAsyncObserver starts the async pipeline for the run and delivers a
// Diagnostics snapshot to obs after every completed step, off the step
// path; under a slow obs the oldest queued observations are dropped. obs
// may be nil: the pipeline still starts, which routes checkpoint I/O
// through it (see CheckpointCapturer) without any observer traffic.
func WithAsyncObserver(obs AsyncObserver) Option {
	return func(o *options) {
		o.asyncObs = obs
		o.async = true
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
// mutex/condvar ring rather than a channel, because a full queue evicts its
// oldest observation while checkpoint events stay pinned — a channel cannot
// re-queue a received element ahead of the rest.
type pipeline struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []event
	closed bool
	err    error // first observer/checkpoint error; set once

	o *options // the run's options, read-only once the consumer starts

	// Consumer-side results, merged into the Report after drain.
	written []string
	bytes   int64
	dropped int64

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

// enqueue posts ev, evicting the oldest observation when the queue is full.
// It returns the first pipeline error once one is recorded (the event is
// discarded then — the run is aborting anyway).
func (p *pipeline) enqueue(ev event) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.err != nil {
			return p.err
		}
		if len(p.queue) < asyncBuffer {
			break
		}
		// Evict the oldest observation; checkpoints are pinned. Only if the
		// queue is all checkpoints does the enqueue wait.
		if i := p.oldestObservation(); i >= 0 {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			p.dropped++
			break
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
		p.cond.Broadcast()
		p.mu.Unlock()

		if failed {
			continue
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
