// Async observer pipeline: diagnostics delivery off the hot step loop.
//
// The paper charges 733 s of the 1.92 h H1024 run to I/O and diagnostics
// that sit on the step path. With WithAsyncObserver the driver's hot loop
// only ever *enqueues* a value snapshot of the solver's Diagnostics after
// each completed step, and a single pipeline goroutine invokes the observer
// while the solver computes the next step. Snapshots are not its business:
// WithCheckpoint writes them on the step loop, whether or not the pipeline
// runs.
//
// The queue holds asyncBuffer events and has one policy: when it is full,
// the producer drops the oldest observation to make room, so the step loop
// never waits on diagnostics. Each observation carries its step number, so
// an observer reads a drop off the jump between two deliveries, and
// Report.DroppedObservations totals the drops of the run, those after the
// last delivery included.
//
// On every exit path — target reached, budget exhausted, step error,
// context cancellation — Run closes the pipeline and waits for it to drain
// completely, so every enqueued observation is delivered before Run
// returns.
package runner

import "sync"

// AsyncObserver is the off-thread diagnostics callback of WithAsyncObserver.
// Unlike the synchronous Observer it receives a Diagnostics value snapshot
// rather than the live Solver: the solver is already mutating under the next
// step when the callback runs, so the pipeline hands it only data captured
// on the step path. Returning a non-nil error aborts the run (the hot loop
// notices before its next step).
type AsyncObserver func(step int, d Diagnostics) error

// asyncBuffer is the pipeline's queue capacity, in events: deep enough
// that an observer stalled for a few hundred steps loses nothing, small
// enough that a stuck one holds only that many Diagnostics values.
const asyncBuffer = 256

// WithAsyncObserver starts the async pipeline for the run and delivers a
// Diagnostics snapshot to obs after every completed step, off the step
// path; under a slow obs the oldest queued observations are dropped. A nil
// obs leaves the option unset.
func WithAsyncObserver(obs AsyncObserver) Option {
	return func(o *options) { o.asyncObs = obs }
}

// event is one observation: a step number and the Diagnostics taken after
// it.
type event struct {
	step int
	diag Diagnostics
}

// pipeline is the bounded queue plus its single consumer goroutine.
type pipeline struct {
	queue   chan event
	obs     AsyncObserver
	dropped int64 // producer-side only; read after close

	mu  sync.Mutex
	err error // first observer error; set once

	done chan struct{}
}

func newPipeline(obs AsyncObserver) *pipeline {
	p := &pipeline{queue: make(chan event, asyncBuffer), obs: obs, done: make(chan struct{})}
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

// enqueue posts ev without ever blocking: while the queue is full it takes
// the oldest observation off the front and counts it dropped.
func (p *pipeline) enqueue(ev event) {
	for {
		select {
		case p.queue <- ev:
			return
		default:
		}
		select {
		case <-p.queue:
			p.dropped++
		default:
		}
	}
}

// close marks the queue complete and waits for the consumer to drain it.
func (p *pipeline) close() {
	close(p.queue)
	<-p.done
}

// consume is the pipeline goroutine: deliver each event in order until the
// queue is closed and drained. After the first error it keeps draining but
// stops delivering.
func (p *pipeline) consume() {
	defer close(p.done)
	var err error
	for ev := range p.queue {
		if err != nil {
			continue
		}
		if err = p.obs(ev.step, ev.diag); err != nil {
			p.mu.Lock()
			p.err = err
			p.mu.Unlock()
		}
	}
}
