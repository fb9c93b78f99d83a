// The job table and a job's lifecycle: how an entry is built and registered,
// how the scheduler's transitions and the runner's callbacks are applied to
// it, and how it renders into status documents, events and the index.
package serve

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"vlasov6d/internal/catalog"
	"vlasov6d/internal/machine"
	"vlasov6d/internal/obs"
	"vlasov6d/internal/runner"
	"vlasov6d/internal/sched"
	"vlasov6d/internal/snapio"
	"vlasov6d/internal/store"
)

// jobEntry is the server-side record of one submission — the one job table
// the status endpoints answer from: the spec it came from, its scheduler
// state, its replayable event ring, the SSE subscribers watching it, and
// its terminal result. The id is the external (and journal) id — stable
// across restarts — while sid is the stream's session-local submission id.
type jobEntry struct {
	id        int
	sid       int
	spec      catalog.JobSpec
	name      string  // resolved job name (with tenant, the checkpoint key)
	tenant    string  // owning tenant name ("" in open mode)
	until     float64 // resolved clock target (catalog default applied)
	submitted time.Time
	// status, attempt and lastErr mirror the scheduler's last transition
	// (onUpdate, and at the job's end finish, write them under s.mu); a job
	// no worker has picked up yet reads Queued, attempt 0.
	status  sched.Status
	attempt int
	lastErr error
	// queuedNow: counted in the tenant queue-depth gauge. Set at
	// registration, cleared by the job's first update (the scheduler never
	// reports a transition back to Queued).
	queuedNow bool
	cancelled bool // client DELETE observed (terminal already journaled)
	// ring retains the job's events for Last-Event-ID replay; subscribers
	// are wake-up channels, each SSE handler reading the ring through its
	// own cursor (a slow client falls behind on the ring, it never makes
	// the publisher drop).
	ring *eventRing
	subs map[chan struct{}]struct{}
	// eta projects the remaining wall time from observed clock progress;
	// runStart anchors its wall axis at the first Running transition.
	eta      *machine.ETAEstimator
	runStart time.Time
	// lastStep is the step of the attempt's last delivered observation (-1
	// before its first) and gapped the drops its "gap" events have
	// reported so far. The runner numbers steps from 0 in every attempt, a
	// resumed one too, so both restart on each Running transition.
	lastStep int
	gapped   int64
	result   *sched.Result // non-nil once terminal; set with status by finish
	// ckptDir is the job's checkpoint directory ("" when the server does
	// not checkpoint); ckptBytes is its last measured on-disk size — the
	// tenant storage-quota accounting. quotaErr, once set, marks the job
	// failed-by-quota: finish reports it failed even though the scheduler
	// delivers the underlying stop as a cancellation.
	ckptDir   string
	ckptBytes int64
	quotaErr  string
	// trace is the job's lifecycle span timeline; runSpan is the handle of
	// the currently open "run" span (0 = none). At terminal time the trace
	// snapshots into the artifact index, so it outlives history eviction.
	trace   *obs.Trace
	runSpan int64
	// seqReserved is the highest event sequence number journaled as
	// reserved for this job's ring (0 without a store). Reservation runs in
	// blocks of store.EventSeqBlock — the first rides the job's submitted
	// record — so the journal sees one append per block, not one per event.
	seqReserved int64
}

// ringTerminalTail is how many ring events a terminal job keeps: enough
// for a briefly-disconnected client to catch the ending (the last few
// diags plus the done document), small enough that thousands of retained
// terminal jobs stay cheap.
const ringTerminalTail = 64

// newEntry builds the server-side record of one submission (new or
// recovered) and wires job for it: the tenant tag and core quota that ride
// into the scheduler's two-level fair share (cores divide across tenants
// before priority divides within one) and into the checkpoint key, and the
// per-submission runner options of attach. The ring numbers its first event
// seqReserved+1. The entry joins the table in registerLocked.
func (s *Server) newEntry(job *sched.Job, spec catalog.JobSpec, tenantName string, tenantCores int,
	submitted time.Time, seqReserved int64) *jobEntry {
	job.Tenant, job.TenantCores = tenantName, tenantCores
	e := &jobEntry{
		spec:        spec,
		name:        job.Name,
		tenant:      tenantName,
		until:       job.Until,
		submitted:   submitted,
		ring:        newEventRingFrom(s.cfg.RingSize, seqReserved+1),
		seqReserved: seqReserved,
		subs:        make(map[chan struct{}]struct{}),
		eta:         machine.NewETAEstimator(job.Until),
		trace:       obs.NewTrace(obs.DefaultTraceSpans),
	}
	if s.cfg.CheckpointDir != "" {
		e.ckptDir = sched.JobCheckpointDir(s.cfg.CheckpointDir, tenantName, job.Name)
	}
	s.attach(job, e)
	return e
}

// registerLocked submits job to the stream and enters e in the job table
// under external id `id`. Callers hold s.mu across it, so the notify
// callback — which also takes s.mu — cannot observe the job before its
// entry exists, even though a worker may pick it up immediately.
func (s *Server) registerLocked(id int, job sched.Job, e *jobEntry) error {
	sid, err := s.stream.SubmitID(job)
	if err != nil {
		return err
	}
	e.id, e.sid, e.queuedNow = id, sid, true
	s.jobs[id] = e
	s.byStream[sid] = id
	s.queued[e.tenant]++
	return nil
}

// allocIDLocked returns the next external job id: the journal's persistent
// counter when durable (ids survive restarts and are never reissued), a
// session counter otherwise. Callers hold s.mu.
func (s *Server) allocIDLocked() int {
	if s.store != nil {
		return s.store.NextID()
	}
	id := s.nextID
	s.nextID++
	return id
}

// attach wires the per-submission runner options onto a job: the step and
// checkpoint timers, and the async diagnostics pipeline every submission
// gets. The pipeline drops its oldest observation when its queue is full —
// diagnostics are a monitoring surface, not the science record — and
// observe turns each drop into a "gap" event. Snapshots are written on the
// job's step loop, and the checkpoint timer runs there after each one: it
// traces the write and re-measures the tenant's storage against its quota,
// with or without a journal.
func (s *Server) attach(job *sched.Job, entry *jobEntry) {
	job.Opts = append(job.Opts,
		// The step timer feeds the histogram only — per-step spans would
		// flood a bounded trace; the step distribution is a fleet question.
		runner.WithStepTimer(func(d time.Duration) {
			s.histStep.ObserveDuration(d)
		}),
		// Checkpoint writes are rare enough to trace per job AND cheap to
		// histogram. The callback runs on the job's step loop, once per
		// durable file.
		runner.WithCheckpointTimer(func(clock float64, d time.Duration) {
			s.histCheckpoint.ObserveDuration(d)
			end := time.Now()
			entry.trace.Observe("checkpoint", end.Add(-d), end,
				map[string]string{"clock": strconv.FormatFloat(clock, 'g', -1, 64)})
			s.noteCheckpoint(entry)
		}),
		runner.WithAsyncObserver(func(step int, d runner.Diagnostics) error {
			s.observe(entry, step, d)
			return nil
		}))
}

// onUpdate receives every scheduler status transition (serialised by the
// stream) and applies the non-terminal ones — Running and Retrying: the job
// table's mirror of the scheduler state, the journal's attempt markers, the
// queue-depth bookkeeping and the "status" event. A job's end is not applied
// here: the stream sends the same value on Results, where finish applies it.
func (s *Server) onUpdate(u sched.Update) {
	if u.Status.Terminal() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if u.Status == sched.Retrying {
		s.retried++
	}
	eid, ok := s.byStream[u.ID]
	if !ok {
		return
	}
	e := s.jobs[eid]
	e.status, e.attempt, e.lastErr = u.Status, u.Attempt, u.Err
	s.dequeuedLocked(e)
	if u.Status == sched.Running {
		// Anchor the ETA estimator's wall axis at the first dispatch; a
		// retry keeps the original anchor so already-burnt wall time stays
		// in the projection.
		if e.runStart.IsZero() {
			e.runStart = time.Now()
		}
		e.runSpan = e.trace.Start("run", map[string]string{"attempt": strconv.Itoa(u.Attempt)})
		// The scheduler drained the last attempt's pipeline before this
		// update and starts the next Run only after it returns, so no
		// delivery straddles the reset.
		e.lastStep, e.gapped = -1, 0
		if s.store != nil {
			s.storeErr("started", s.store.Started(eid, u.Attempt))
		}
	} else {
		e.endRunSpanLocked()
		s.trailingGapLocked(e, u.Report)
	}
	s.appendEventLocked(e, "status", transitionBody(eid, u))
}

// onPhase receives the scheduler's phase timings — queue wait, dispatch
// latency, retry backoff. Unlike onUpdate it is NOT serialised by the
// stream: workers call it concurrently, which is fine because the
// histograms are atomic and the trace has its own per-job lock. s.mu is
// held only for the id lookup, never across the recording.
func (s *Server) onPhase(ev sched.PhaseEvent) {
	s.mu.Lock()
	e := s.jobs[s.byStream[ev.Index]]
	s.mu.Unlock()
	d := ev.End.Sub(ev.Start)
	switch ev.Phase {
	case "queue":
		s.histQueueWait.ObserveDuration(d)
	case "dispatch":
		s.histDispatch.ObserveDuration(d)
	}
	if e == nil {
		return
	}
	var attrs map[string]string
	if ev.Phase != "queue" {
		attrs = map[string]string{"attempt": strconv.Itoa(ev.Attempt)}
	}
	e.trace.Observe(ev.Phase, ev.Start, ev.End, attrs)
}

// consumeResults applies every job's end for the server's lifetime. The
// Results channel closes when the stream is fully drained (after Close or
// cancellation), which is the service's "everything flushed" signal.
func (s *Server) consumeResults() {
	for u := range s.stream.Results() {
		s.finish(u)
	}
	close(s.drained)
}

// finish applies one job's end, whole and in one place. Status, report and
// outcome counter change under one hold of s.mu, so no reader ever sees a
// terminal job without its report; with them go the journal's terminal
// record, the closing "status" and "done" events, the artifact-index entry and
// the history eviction. It runs on the result consumer's goroutine only, so
// the journal and index fsyncs never sit inside the scheduler's notify.
func (s *Server) finish(u sched.Update) {
	s.mu.Lock()
	eid, ok := s.byStream[u.ID]
	e := s.jobs[eid]
	s.mu.Unlock()
	if !ok {
		return
	}
	// Scan the job's checkpoint directory off the lock: the artifact
	// listing is pure file I/O and must not serialise the notify
	// callbacks and handlers behind it.
	var artifacts []store.Artifact
	if s.index != nil && e.ckptDir != "" {
		artifacts, _ = collectArtifacts(e.ckptDir)
	}
	var ixEntry *store.IndexEntry
	s.mu.Lock()
	// A storage-quota kill arrives from the scheduler as a cancellation,
	// but the server's truth — already journaled at enforcement time — is a
	// failure. This is the one place that says so: everything below, and
	// every later read of the entry, sees the corrected outcome.
	quotaKill := e.quotaErr != ""
	if quotaKill {
		u.Status, u.Err = sched.Failed, errors.New(e.quotaErr)
	}
	switch u.Status {
	case sched.Done:
		s.completed++
	case sched.Failed:
		s.failed++
	case sched.Cancelled:
		s.cancelled++
	}
	s.dequeuedLocked(e)
	e.endRunSpanLocked()
	e.status, e.attempt, e.lastErr, e.result = u.Status, u.Attempt, u.Err, &u
	delete(s.byStream, u.ID)
	if s.store != nil && !quotaKill && u.Status != sched.Cancelled {
		// Done and Failed are journaled terminal here; a user DELETE was
		// journaled at cancel time, a quota kill at enforcement time. A
		// shutdown cancellation is the one outcome that must NOT reach the
		// journal: the job stays pending there, and replaying it on the
		// next start IS the recovery path.
		msg := ""
		if u.Err != nil {
			msg = u.Err.Error()
		}
		s.storeErr("terminal", s.store.Terminal(eid, u.Status.String(), msg))
	}
	s.trailingGapLocked(e, u.Report)
	s.appendEventLocked(e, "status", transitionBody(eid, u))
	s.appendEventLocked(e, "done", statusBody(e))
	// Terminal rings keep only a short tail: enough for a briefly
	// disconnected watcher to catch the ending, cheap enough that
	// thousands of retained terminal jobs don't dominate memory.
	e.ring.trimTo(ringTerminalTail)
	if s.index != nil {
		ixEntry = indexEntryLocked(e, artifacts)
	}
	// Evict the oldest terminal entries past Config.History so an
	// always-on daemon's memory stays bounded. Evicted entries
	// disappear from the map only — attached SSE handlers keep
	// their pointer and still see the result.
	s.terminal = append(s.terminal, eid)
	for len(s.terminal) > s.cfg.History {
		// An evicted entry leaves the quota accounting too: its
		// snapshots are no longer eviction candidates, so counting
		// them against the tenant would wedge the quota on bytes
		// the enforcer can never reclaim.
		if old := s.jobs[s.terminal[0]]; old != nil && old.ckptBytes != 0 {
			s.storage[old.tenant] -= old.ckptBytes
		}
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
	s.mu.Unlock()
	if ixEntry != nil {
		// The index append (and its fsync) happens off s.mu; the index
		// has its own lock.
		s.storeErr("index", s.index.Put(*ixEntry))
	}
}

// dequeuedLocked takes e out of its tenant's queue-depth gauge, on whichever
// transition comes first: the scheduler emits no Queued update (a worker
// starts at Running or Cancelled). Callers hold s.mu.
func (s *Server) dequeuedLocked(e *jobEntry) {
	if e.queuedNow {
		e.queuedNow = false
		s.queued[e.tenant]--
	}
}

// endRunSpanLocked closes the running segment, if one is open: any transition
// away from Running does, so each attempt's compute time is its own span. It
// carries the clock-advance rate the ETA estimator settled on — the per-job
// throughput the machine model prices. Callers hold s.mu.
func (e *jobEntry) endRunSpanLocked() {
	if e.runSpan == 0 {
		return
	}
	var attrs map[string]string
	if rate := e.eta.Rate(); rate > 0 {
		attrs = map[string]string{"clock_per_sec": strconv.FormatFloat(rate, 'g', -1, 64)}
	}
	e.trace.End(e.runSpan, attrs)
	e.runSpan = 0
}

// transitionBody renders one scheduler transition as a "status" event.
func transitionBody(eid int, u sched.Update) map[string]any {
	body := map[string]any{
		"id":      eid,
		"name":    u.Name,
		"status":  u.Status.String(),
		"attempt": u.Attempt,
	}
	if u.Err != nil {
		body["error"] = u.Err.Error()
	}
	return body
}

// appendEventLocked marshals one event into the job's ring — assigning its
// sequence number — and wakes every subscriber. The wake is a non-blocking
// send on a capacity-1 channel: a token already pending means the handler
// will drain the ring anyway, so nothing is lost and nothing blocks. A slow
// SSE client falls behind on the ring (and, at worst, sees an explicit gap
// after eviction); it never makes the publisher drop. Callers hold s.mu.
func (s *Server) appendEventLocked(e *jobEntry, typ string, body any) {
	t, data := marshalEvent(typ, body)
	seq := e.ring.append(t, data)
	if s.store != nil && seq > e.seqReserved {
		// Sequence durability is block-granular: one journal append claims
		// the next store.EventSeqBlock numbers, so the per-event cost is
		// amortised to ~zero and a restart resumes numbering past the
		// reservation. The append rides s.mu like the journal's other
		// bookkeeping writes; a fresh job's first block came with its
		// submitted record, so this runs for a recovered job's first event
		// and then once per block.
		e.seqReserved = seq + store.EventSeqBlock
		s.storeErr("events", s.store.EventSeqReserve(e.id, e.seqReserved))
	}
	for ch := range e.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// observe ingests one diagnostics snapshot: counts it for the throughput
// gauge, feeds the ETA estimator, and appends the "diag" event to the
// job's ring — after a "gap" event when the step jumped past observations
// the pipeline dropped. It runs on the job's async observer goroutine, off
// the step loop. Unlike the old push surface this always appends — the
// ring is the replay buffer a later Last-Event-ID resume reads,
// subscribers or not.
func (s *Server) observe(e *jobEntry, step int, d runner.Diagnostics) {
	body := map[string]any{
		"step":  step,
		"clock": safeNum(d.Clock),
		"time":  safeNum(d.Time),
		"mass":  safeNum(d.Mass),
	}
	for k, v := range d.Extra {
		body[k] = safeNum(v)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stepsObserved++
	if missed := step - e.lastStep - 1; missed > 0 {
		s.gapLocked(e, int64(missed))
	}
	e.lastStep = step
	if e.eta != nil && !e.runStart.IsZero() {
		e.eta.Observe(time.Since(e.runStart).Seconds(), d.Clock)
	}
	s.appendEventLocked(e, "diag", body)
}

// gapLocked appends an observer "gap" event for missed dropped
// observations and counts them in vlasovd_sse_dropped_total. Callers hold
// s.mu.
func (s *Server) gapLocked(e *jobEntry, missed int64) {
	s.sseDropped += missed
	e.gapped += missed
	s.appendEventLocked(e, "gap", map[string]any{"missed": missed, "source": "observer"})
}

// trailingGapLocked reports the drops of an attempt's run that no gap has
// covered — those after its last delivered observation, which the step
// numbers cannot show. rep may be nil (the attempt never ran). Callers
// hold s.mu.
func (s *Server) trailingGapLocked(e *jobEntry, rep *runner.Report) {
	if rep != nil && rep.DroppedObservations > e.gapped {
		s.gapLocked(e, rep.DroppedObservations-e.gapped)
	}
}

// safeNum makes a float JSON-encodable: encoding/json rejects NaN and ±Inf,
// and a diverging run's diagnostics (a client-chosen unstable dt) must
// degrade to a readable value, not silently kill the SSE stream before its
// terminal event.
func safeNum(f float64) any {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Sprintf("%g", f)
	}
	return f
}

// shownStatus is the entry's externally visible scheduler state. A DELETE'd
// job still in the queue reads cancelled: the cancellation is decided, only
// its Result waits for a worker to pop it. Callers hold s.mu.
func (e *jobEntry) shownStatus() sched.Status {
	if e.status == sched.Queued && e.cancelled {
		return sched.Cancelled
	}
	return e.status
}

// statusBody renders one submission's status document. Callers hold s.mu
// (onUpdate and finish write the entry, and the ETA estimator is mutated,
// under it).
func statusBody(e *jobEntry) map[string]any {
	body := map[string]any{
		"id":        e.id,
		"name":      e.name,
		"scenario":  e.spec.Scenario,
		"status":    e.shownStatus().String(),
		"attempt":   e.attempt,
		"priority":  e.spec.Priority,
		"submitted": e.submitted.UTC().Format(time.RFC3339Nano),
	}
	if e.until > 0 {
		body["until"] = e.until
	}
	if e.tenant != "" {
		body["tenant"] = e.tenant
	}
	if e.lastErr != nil {
		body["error"] = e.lastErr.Error()
	}
	if e.result == nil {
		// A live run with an established clock-advance rate carries its wall
		// ETA — the online face of the machine model's time-to-solution. A
		// queued or just-started job has no defensible estimate and omits
		// the field rather than inventing one.
		if eta, ok := e.eta.ETASeconds(); ok {
			body["eta_seconds"] = eta
		}
	} else if rep := reportSummary(e.result.Report); rep != nil {
		body["report"] = reportBody(rep)
	}
	return body
}

// statusBodyIndex renders an evicted job's status document from its
// artifact-index record. "archived": true tells clients they are reading
// the durable record, not live scheduler state.
func statusBodyIndex(ie *store.IndexEntry) map[string]any {
	body := map[string]any{
		"id":        ie.ID,
		"name":      ie.Name,
		"status":    ie.Status,
		"submitted": ie.SubmittedAt().UTC().Format(time.RFC3339Nano),
		"archived":  true,
	}
	if ie.Scenario != "" {
		body["scenario"] = ie.Scenario
	}
	if ie.Tenant != "" {
		body["tenant"] = ie.Tenant
	}
	if ie.Error != "" {
		body["error"] = ie.Error
	}
	if ie.FinishedUnixNano != 0 {
		body["finished"] = ie.FinishedAt().UTC().Format(time.RFC3339Nano)
	}
	if ie.Report != nil {
		body["report"] = reportBody(ie.Report)
	}
	return body
}

// reportSummary flattens a runner report into the durable record's form —
// also what the status documents, live and archived, render from.
func reportSummary(rep *runner.Report) *store.ReportSummary {
	if rep == nil {
		return nil
	}
	return &store.ReportSummary{
		Steps:           rep.Steps,
		Clock:           rep.Clock,
		WallSeconds:     rep.Wall.Seconds(),
		Reason:          rep.Reason.String(),
		Checkpoints:     len(rep.Checkpoints),
		CheckpointBytes: rep.CheckpointBytes,
		DroppedObs:      rep.DroppedObservations,
	}
}

// reportBody renders a run report for a status document, live or archived.
func reportBody(rep *store.ReportSummary) map[string]any {
	return map[string]any{
		"steps":            rep.Steps,
		"clock":            safeNum(rep.Clock),
		"wall_seconds":     rep.WallSeconds,
		"reason":           rep.Reason,
		"checkpoints":      rep.Checkpoints,
		"checkpoint_bytes": rep.CheckpointBytes,
		"dropped_obs":      rep.DroppedObs,
	}
}

// indexEntryLocked flattens one terminal job into its durable artifact-index
// record. The trace snapshot is the trace's durable form: it survives history
// eviction and restarts, served back by the trace endpoint with
// "archived": true. Callers hold s.mu.
func indexEntryLocked(e *jobEntry, artifacts []store.Artifact) *store.IndexEntry {
	ie := &store.IndexEntry{
		ID:                e.id,
		Tenant:            e.tenant,
		Name:              e.name,
		Scenario:          e.spec.Scenario,
		Status:            e.status.String(),
		SubmittedUnixNano: e.submitted.UnixNano(),
		FinishedUnixNano:  time.Now().UnixNano(),
		Artifacts:         artifacts,
		Report:            reportSummary(e.result.Report),
	}
	if e.lastErr != nil {
		ie.Error = e.lastErr.Error()
	}
	ie.Trace, ie.TraceDropped = e.trace.Snapshot()
	return ie
}

// collectArtifacts scans one job's checkpoint directory into artifact
// records, oldest first: file name, size, the clock embedded in the
// fixed-width name, and a format probe ("snapio-v1"/"snapio-v2" for the
// cosmological snapshots, "solver" for solver-private formats). The same
// records serve the live checkpoint listing and the terminal write into
// the artifact index.
func collectArtifacts(dir string) ([]store.Artifact, error) {
	paths, err := runner.ListCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	out := make([]store.Artifact, 0, len(paths))
	for _, p := range paths {
		a := store.Artifact{Name: filepath.Base(p), Format: "solver"}
		if st, err := os.Stat(p); err == nil {
			a.Bytes = st.Size()
		}
		fmt.Sscanf(a.Name, "ckpt_%f.v6d", &a.Clock)
		if f, err := os.Open(p); err == nil {
			if v, _, ok := snapio.Probe(f); ok {
				a.Format = fmt.Sprintf("snapio-v%d", v)
			}
			f.Close()
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
