// Package serve is the HTTP control plane over the streaming scheduler —
// simulation as a service. A Server owns one long-lived sched.Stream (with
// an optional CoreBudget and per-job checkpointing) and a catalog of
// scenarios; remote clients submit serialisable JobSpecs, watch status and
// live diagnostics, cancel jobs, and download checkpoint artifacts:
//
//	POST   /v1/jobs                      submit a catalog.JobSpec, get an id
//	GET    /v1/jobs                      list every submission's status
//	GET    /v1/jobs/{id}                 one submission's status
//	DELETE /v1/jobs/{id}                 cancel (queued or running)
//	GET    /v1/jobs?archived=1           list the tenant's archived (indexed) jobs
//	GET    /v1/jobs/{id}/diagnostics     live SSE stream of per-step diagnostics
//	GET    /v1/jobs/{id}/trace           the job's lifecycle span timeline (live or archived)
//	GET    /v1/jobs/{id}/checkpoints     list the job's snapshot artifacts
//	GET    /v1/jobs/{id}/checkpoints/{file}  download one artifact
//	GET    /v1/scenarios                 the catalog's contract surface
//	POST   /v1/admin/reload              hot key-file reload (admin tenants)
//	GET    /v1/admin/pprof/              net/http/pprof profiles (admin tenants)
//	GET    /healthz                      liveness
//	GET    /metrics                      counters, gauges and latency histograms
//
// Diagnostics ride the runner's async observer pipeline (value snapshots
// off the hot step loop, DropOldest back-pressure), so a slow or absent
// SSE client never stalls a solver. Delivery is replayable: every event a
// job emits is stamped with a monotonic sequence number and retained in a
// bounded per-job ring (Config.RingSize), and the SSE stream carries the
// sequence as its `id:` line. A client that disconnects mid-run resumes
// with a `Last-Event-ID` header (or ?last_event_id=): the handler replays
// the missed window from the ring before going live, delivering every
// retained event exactly once. Loss is never silent — when the requested
// window has been evicted from the ring, or the observer pipeline dropped
// observations under back-pressure, the stream carries an explicit "gap"
// event with the missed count. Running jobs also report an eta_seconds
// projection (internal/machine's online TTS estimator fed by the same
// diagnostics) in their status documents.
//
// Shutdown is graceful: Drain stops
// intake (submissions get 503 with Retry-After), lets queued and running
// jobs finish — checkpointing as they go — until the deadline, then
// cancels the remainder through the scheduler's own cancellation path and
// flushes every result. The paper's campaigns are hand-launched one-shot
// jobs; this is the always-on shape (SK-Gd's real-time monitor is the
// exemplar) the ROADMAP's service north star asks for.
//
// Durability (Config.StoreDir) journals every submission's lifecycle into
// an append-only store: the canonical spec bytes at submission, each
// attempt start, each checkpoint write, and the terminal outcome. On the
// next start the server replays the journal and re-queues every unfinished
// job under its original id; because a recovered job's name — and so its
// checkpoint directory — derives from the same canonical spec, the
// scheduler's restore path resumes it from its newest snapshot instead of
// re-running it. Recovery resolves journaled specs concurrently (bounded
// by the core budget) so a large journal does not stall startup, then
// submits in journal order so priorities and FIFO ties replay
// deterministically. A shutdown cancellation is deliberately NOT journaled
// as terminal — replay IS the recovery path — while a client's DELETE is
// journaled at cancel time, so a cancelled job stays cancelled across a
// crash. Terminal jobs additionally land in a persistent artifact index
// (store.Index): after the bounded in-memory history evicts a finished
// job, GET /v1/jobs/{id} and its checkpoints listing keep answering from
// the index, so a checkpoint written yesterday stays discoverable today.
//
// Tenancy (Config.Tenants) authenticates every /v1 request against a
// bearer-key registry: unknown or missing keys get 401, another tenant's
// jobs are invisible in listings and 403 on direct access, and POST
// /v1/jobs is admission-controlled per tenant — a token-bucket rate limit
// and a queue quota, both answered with 429 plus Retry-After. The
// tenant's core quota rides into the scheduler as a sched.Claim, where the
// CoreBudget divides cores fairly across tenants before priority orders
// jobs within one. /healthz and /metrics stay unauthenticated: they are
// the probe surface infrastructure scrapes without credentials.
//
// Live operation (see admin.go): the registry is hot-reloadable behind an
// atomic pointer (SIGHUP or POST /v1/admin/reload), every admission
// decision is audited to the store's append-only audit.v6da and counted
// in vlasovd_admission_total{tenant,outcome}, the journal compacts itself
// online past Config.JournalCompact* thresholds, and per-tenant
// max_storage_bytes quotas are enforced on the checkpoint-notify path.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vlasov6d/internal/catalog"
	"vlasov6d/internal/machine"
	"vlasov6d/internal/obs"
	"vlasov6d/internal/runner"
	"vlasov6d/internal/sched"
	"vlasov6d/internal/snapio"
	"vlasov6d/internal/store"
	"vlasov6d/internal/tenant"
)

// Config assembles a Server.
type Config struct {
	// Catalog is the scenario registry submissions resolve against
	// (required).
	Catalog *catalog.Catalog
	// Workers bounds the scheduler pool (0 = GOMAXPROCS).
	Workers int
	// Budget is the core budget divided among live jobs (0 = no budget:
	// every job runs unpinned).
	Budget int
	// CheckpointDir is the per-job checkpoint root (empty = no
	// checkpointing; the checkpoints endpoints then return 404).
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in steps (0 = the
	// scheduler default).
	CheckpointEvery int
	// Retries is the default retry policy for transient failures; a spec
	// may override it per job.
	Retries int
	// DiagBuffer is the per-job async diagnostics queue capacity
	// (0 = 256). The queue is lossy (DropOldest): diagnostics are a
	// monitoring surface, not the science record. Drops are not silent —
	// they surface as "gap" events on the job's stream.
	DiagBuffer int
	// RingSize bounds each job's diagnostics replay ring (0 = 512): how
	// far back a disconnected SSE client can resume with Last-Event-ID
	// before hitting an explicit gap. Terminal jobs keep only the newest
	// ringTerminalTail events, so retained history stays cheap.
	RingSize int
	// History bounds how many terminal job records the server retains for
	// the status endpoints (0 = 4096) — the only history bound there is: the
	// stream underneath keeps live jobs only. An always-on daemon accepts
	// work indefinitely; evicting the oldest finished jobs keeps memory and
	// GET /v1/jobs bounded.
	History int
	// StoreDir enables the durable job journal (empty = in-memory only).
	// On start the server replays it and re-queues unfinished jobs; see
	// the package comment.
	StoreDir string
	// Tenants enables bearer-key authentication and per-tenant admission
	// control on the /v1 surface (nil = open access, no tenancy).
	Tenants *tenant.Registry
	// KeysPath is the key file Tenants was loaded from; setting it enables
	// hot reload (SIGHUP in cmd/vlasovd, POST /v1/admin/reload here). A
	// reload re-reads this path and swaps the registry atomically; empty
	// means the registry is fixed for the server's lifetime.
	KeysPath string
	// JournalCompactBytes / JournalCompactRecords arm online journal
	// compaction: when the journal file crosses either threshold (and has
	// terminal records to drop), it is rewritten in place — under the
	// store's own lock, safe against concurrent appends. 0 picks the
	// defaults (1 MiB / 4096 records); negative disables that threshold.
	JournalCompactBytes   int64
	JournalCompactRecords int
	// TraceSpans bounds each job's lifecycle span buffer
	// (0 = obs.DefaultTraceSpans). When full the oldest span is evicted and
	// the trace document reports the drop count — same never-silent
	// contract as the SSE ring.
	TraceSpans int
}

// Default online journal-compaction thresholds: crossing either triggers
// a live rewrite. Both are far above a healthy journal's steady state —
// boot compaction already drops terminal jobs — so the online pass only
// fires on long uptimes, which is exactly when it is needed.
const (
	DefaultJournalCompactBytes   = 1 << 20
	DefaultJournalCompactRecords = 4096
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
	// (onUpdate writes them under s.mu); a job no worker has picked up yet
	// reads Queued, attempt 0.
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
	result   *sched.Result // non-nil once terminal
	// ckptDir is the job's checkpoint directory ("" when the server does
	// not checkpoint); ckptBytes is its last measured on-disk size — the
	// tenant storage-quota accounting. quotaErr, once set, marks the job
	// failed-by-quota: its status reports failed even though the scheduler
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

// Server is the control plane. Construct with New, mount Handler, and
// Drain (or Close) on shutdown.
type Server struct {
	cfg    Config
	stream *sched.Stream
	store  *store.Store // nil without StoreDir
	index  *store.Index // nil without StoreDir — the artifact index
	audit  *store.Audit // nil without StoreDir — the admission audit log
	cancel context.CancelFunc
	start  time.Time

	// tenants is the live registry, swapped whole by ReloadKeys — every
	// request-path lookup goes through registry(), never cfg.Tenants
	// (which only records what the server started with). A nil load means
	// the daemon runs open.
	tenants atomic.Pointer[tenant.Registry]

	mu        sync.Mutex
	jobs      map[int]*jobEntry // keyed by external id
	byStream  map[int]int       // live stream id → external id
	queued    map[string]int    // per-tenant queued (not yet running) jobs
	storage   map[string]int64  // per-tenant tracked checkpoint bytes on disk
	admission map[admKey]int64  // admission decisions by (tenant, outcome)
	nextID    int               // external id counter when no store persists one
	terminal  []int             // terminal entry ids oldest-first — the eviction queue
	draining  bool

	// counters, guarded by mu: the /metrics surface.
	submitted, completed, failed, cancelled, retried, recovered int64
	reloads, reloadsFailed                                      int64
	// sseDropped counts diagnostics events lost before SSE delivery:
	// observer-queue evictions plus ring evictions a connected client was
	// told about via "gap". sseReplayed counts events re-served from rings
	// on Last-Event-ID resumes. stepsObserved counts every diagnostics
	// observation across all jobs; thrBase/thrStart window it into the
	// step-throughput gauge (rate since the previous /metrics scrape).
	sseDropped, sseReplayed, stepsObserved int64
	thrBase                                int64
	thrStart                               time.Time

	drained   chan struct{} // closed when the stream's results are flushed
	storeOnce sync.Once     // Close/Drain both finalise the journal

	// storeErrs counts, by operation, the durable-layer calls that failed
	// after their job was accepted (see storeErr). One counter per storeOps
	// entry, made in New and atomic because the calls happen both under
	// s.mu and off it.
	storeErrs map[string]*atomic.Int64

	// Latency histograms, fed from the scheduler's phase notifications and
	// the runner's timer hooks. Entirely atomic — Observe never takes s.mu,
	// so the runner's hot step loop and the scheduler's workers record
	// without contending with handlers.
	histQueueWait  *obs.Histogram
	histStep       *obs.Histogram
	histCheckpoint *obs.Histogram
	histDispatch   *obs.Histogram
}

// New starts the control plane: the stream's worker pool is live when New
// returns, and — with a StoreDir — every journaled unfinished job is
// already re-queued. ctx bounds the whole service — cancelling it is the
// fast shutdown (running jobs stop mid-run); prefer Drain for the graceful
// one.
func New(ctx context.Context, cfg Config) (*Server, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("serve: nil catalog")
	}
	if cfg.DiagBuffer == 0 {
		cfg.DiagBuffer = 256
	}
	if cfg.RingSize == 0 {
		cfg.RingSize = 512
	}
	if cfg.History == 0 {
		cfg.History = 4096
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Server{
		cfg:       cfg,
		cancel:    cancel,
		start:     time.Now(),
		jobs:      make(map[int]*jobEntry),
		byStream:  make(map[int]int),
		queued:    make(map[string]int),
		storage:   make(map[string]int64),
		admission: make(map[admKey]int64),
		drained:   make(chan struct{}),
		storeErrs: make(map[string]*atomic.Int64, len(storeOps)),
	}
	for _, op := range storeOps {
		s.storeErrs[op] = new(atomic.Int64)
	}
	s.thrStart = s.start
	s.histQueueWait = obs.NewHistogram("vlasovd_queue_wait_seconds",
		"Time a job spent queued before a worker picked it up.", obs.DurationBuckets())
	s.histStep = obs.NewHistogram("vlasovd_step_duration_seconds",
		"Wall time of one solver step.", obs.DurationBuckets())
	s.histCheckpoint = obs.NewHistogram("vlasovd_checkpoint_write_seconds",
		"Wall time writing one checkpoint file.", obs.DurationBuckets())
	s.histDispatch = obs.NewHistogram("vlasovd_dispatch_latency_seconds",
		"Worker pickup to solver start: core-lease wait plus solver construction or restore.", obs.DurationBuckets())
	if cfg.Tenants != nil {
		s.tenants.Store(cfg.Tenants)
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			cancel()
			return nil, err
		}
		s.store = st
		compactBytes, compactRecords := cfg.JournalCompactBytes, cfg.JournalCompactRecords
		if compactBytes == 0 {
			compactBytes = DefaultJournalCompactBytes
		}
		if compactRecords == 0 {
			compactRecords = DefaultJournalCompactRecords
		}
		if compactBytes < 0 {
			compactBytes = 0
		}
		if compactRecords < 0 {
			compactRecords = 0
		}
		st.SetAutoCompact(compactBytes, compactRecords)
		ix, err := store.OpenIndex(cfg.StoreDir)
		if err != nil {
			cancel()
			st.Close()
			return nil, err
		}
		s.index = ix
		au, err := store.OpenAudit(cfg.StoreDir)
		if err != nil {
			cancel()
			ix.Close()
			st.Close()
			return nil, err
		}
		s.audit = au
	}
	opts := []sched.Option{
		sched.WithNotify(s.onUpdate),
		sched.WithPhaseNotify(s.onPhase),
		sched.WithRetries(cfg.Retries),
	}
	if cfg.Workers > 0 {
		opts = append(opts, sched.WithWorkers(cfg.Workers))
	}
	if cfg.Budget > 0 {
		opts = append(opts, sched.WithCoreBudget(cfg.Budget))
	}
	if cfg.CheckpointDir != "" {
		opts = append(opts, sched.WithJobCheckpoints(cfg.CheckpointDir))
		if cfg.CheckpointEvery > 0 {
			opts = append(opts, sched.WithJobCheckpointEvery(cfg.CheckpointEvery))
		}
	}
	stream, err := sched.NewStream(sctx, opts...)
	if err != nil {
		cancel()
		s.closeStore()
		return nil, err
	}
	s.stream = stream
	go s.consumeResults()
	if s.store != nil {
		s.recoverJobs()
	}
	return s, nil
}

// closeStore finalises the journal, the artifact index and the audit log
// exactly once (Close and Drain may both run, in either order).
func (s *Server) closeStore() {
	s.storeOnce.Do(func() {
		if s.store != nil {
			s.store.Close()
		}
		if s.index != nil {
			// In-memory reads (index.Get) stay valid after Close; only
			// appends are fenced, and a post-drain append is a bug anyway.
			s.index.Close()
		}
		if s.audit != nil {
			s.audit.Close()
		}
	})
}

// storeOps are the durable-layer operations storeErr counts, in /metrics
// order.
var storeOps = []string{"audit", "checkpoint", "events", "index", "started", "terminal"}

// storeErr counts a failed durable-layer call in
// vlasovd_store_errors_total{op=...}. Only the submitted record fails
// closed (a 202 promises the job survives a restart, so handleSubmit
// answers 503 instead); once a job is accepted, a journal, index or audit
// append that fails must not fail the job with it — the server degrades to
// what it holds in memory, and the counter is how an operator sees that it
// did.
func (s *Server) storeErr(op string, err error) {
	if err != nil {
		s.storeErrs[op].Add(1)
	}
}

// recoverJobs re-queues every journaled unfinished job into the stream
// under its original external id. This is resumption, not re-execution:
// the recovered job's name (and so its checkpoint directory) derives from
// the same canonical spec, so the scheduler's restore path picks up the
// newest snapshot the previous life wrote. A job whose spec no longer
// resolves — catalog changed across the restart — is journaled failed
// rather than wedging recovery.
//
// Spec resolution (unmarshal + catalog lookup, which builds the solver
// geometry) dominates recovery time on a large journal, and each job's
// resolution is independent — so that stage fans out across the core
// budget. Submission stays sequential in journal order: priorities and
// FIFO ties must replay deterministically, and SubmitID is cheap.
func (s *Server) recoverJobs() {
	recoverStart := time.Now()
	pending := s.store.Pending()
	if len(pending) == 0 {
		return
	}
	type resolved struct {
		job sched.Job
		err error // non-nil: journal this id failed with err
	}
	res := make([]resolved, len(pending))
	specs := make([]catalog.JobSpec, len(pending))
	workers := s.cfg.Budget
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range pending {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			j := pending[i]
			if err := json.Unmarshal(j.Spec, &specs[i]); err != nil {
				res[i].err = fmt.Errorf("journaled spec unreadable: %w", err)
				return
			}
			job, err := s.cfg.Catalog.Job(specs[i])
			if err != nil {
				res[i].err = fmt.Errorf("journaled spec no longer resolves: %w", err)
				return
			}
			res[i].job = job
		}(i)
	}
	wg.Wait()
	for i, j := range pending {
		if res[i].err != nil {
			s.storeErr("terminal", s.store.Terminal(j.ID, "failed", res[i].err.Error()))
			continue
		}
		job := res[i].job
		var maxCores int
		if reg := s.registry(); reg != nil {
			// Quotas are re-read from the current registry: the key file is
			// the live source of truth, the journal only remembers ownership.
			if tn, ok := reg.ByName(j.Tenant); ok {
				maxCores = tn.MaxCores
			}
		}
		// The ring continues past the journaled reservation instead of
		// resetting to 1, so a client resuming across the restart gets a
		// bounded, explicit gap — never a silently restarted sequence.
		entry := s.newEntry(&job, specs[i], j.Tenant, maxCores, j.Submitted, j.EventSeqReserved)
		if entry.ckptDir != "" {
			// Prime the storage accounting with what the previous life left
			// on disk, so a recovered tenant starts its quota from reality.
			entry.ckptBytes = scanCheckpointBytes(entry.ckptDir)
		}
		s.mu.Lock()
		if err := s.registerLocked(j.ID, job, entry); err != nil {
			s.mu.Unlock()
			s.storeErr("terminal", s.store.Terminal(j.ID, "failed", "recovery resubmission rejected: "+err.Error()))
			continue
		}
		s.storage[j.Tenant] += entry.ckptBytes
		s.recovered++
		s.mu.Unlock()
		// The recovered trace starts fresh (the previous life's spans are in
		// the index if the job finished there); the recovery span marks the
		// boot-replay cost this life paid before the job was runnable again.
		entry.trace.Observe("recovery", recoverStart, time.Now(), nil)
	}
}

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
		trace:       obs.NewTrace(s.cfg.TraceSpans),
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

// consumeResults drains the stream's Results channel for the server's
// lifetime, recording terminal outcomes and waking SSE watchers. The
// channel closes when the stream is fully drained (after Close or
// cancellation), which is the service's "everything flushed" signal.
func (s *Server) consumeResults() {
	for r := range s.stream.Results() {
		r := r
		s.mu.Lock()
		eid, tracked := s.byStream[r.ID]
		e := s.jobs[eid]
		s.mu.Unlock()
		// Scan the job's checkpoint directory off the lock: the artifact
		// listing is pure file I/O and must not serialise the notify
		// callbacks and handlers behind it.
		var artifacts []store.Artifact
		if tracked && s.index != nil && e.ckptDir != "" {
			artifacts, _ = collectArtifacts(e.ckptDir)
		}
		var ixEntry *store.IndexEntry
		s.mu.Lock()
		// A storage-quota kill arrives from the scheduler as a cancellation,
		// but the server's truth — already journaled at enforcement time —
		// is a failure. Count and report it as one.
		quotaFailed := tracked && e.quotaErr != ""
		switch {
		case quotaFailed:
			s.failed++
		case r.Status == sched.Done:
			s.completed++
		case r.Status == sched.Failed:
			s.failed++
		case r.Status == sched.Cancelled:
			s.cancelled++
		}
		if tracked {
			e.result = &r
			delete(s.byStream, r.ID)
			if s.store != nil && !quotaFailed {
				// Done and Failed are journaled terminal; a user DELETE was
				// journaled at cancel time, a quota kill at enforcement time.
				// A shutdown cancellation is the one outcome that must NOT
				// reach the journal: the job stays pending there, and
				// replaying it on the next start IS the recovery path.
				switch r.Status {
				case sched.Done:
					s.storeErr("terminal", s.store.Terminal(eid, "done", ""))
				case sched.Failed:
					msg := ""
					if r.Err != nil {
						msg = r.Err.Error()
					}
					s.storeErr("terminal", s.store.Terminal(eid, "failed", msg))
				}
			}
			// Backstop for the run span: the scheduler's terminal Update
			// normally closed it, but a quota kill's cancel can race the
			// notify — the snapshot below must never persist an open "run".
			if e.runSpan != 0 {
				e.trace.End(e.runSpan, nil)
				e.runSpan = 0
			}
			s.appendEventLocked(e, "done", statusBody(e))
			// Terminal rings keep only a short tail: enough for a briefly
			// disconnected watcher to catch the ending, cheap enough that
			// thousands of retained terminal jobs don't dominate memory.
			e.ring.trimTo(ringTerminalTail)
			if s.index != nil {
				ixEntry = indexEntryLocked(e, &r, artifacts)
				// The snapshot is the trace's durable form: it survives the
				// history eviction below and restarts, served back by the
				// trace endpoint with "archived": true.
				ixEntry.Trace, ixEntry.TraceDropped = e.trace.Snapshot()
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
		}
		s.mu.Unlock()
		if ixEntry != nil {
			// The index append (and its fsync) happens off s.mu; the index
			// has its own lock.
			s.storeErr("index", s.index.Put(*ixEntry))
		}
	}
	close(s.drained)
}

// indexEntryLocked flattens one terminal job into its durable artifact-index
// record. Callers hold s.mu.
func indexEntryLocked(e *jobEntry, r *sched.Result, artifacts []store.Artifact) *store.IndexEntry {
	ie := &store.IndexEntry{
		ID:                e.id,
		Tenant:            e.tenant,
		Name:              e.name,
		Scenario:          e.spec.Scenario,
		Status:            r.Status.String(),
		SubmittedUnixNano: e.submitted.UnixNano(),
		FinishedUnixNano:  time.Now().UnixNano(),
		Artifacts:         artifacts,
	}
	if r.Err != nil {
		ie.Error = r.Err.Error()
	}
	if e.quotaErr != "" {
		// The durable record carries the quota failure, not the
		// cancellation the scheduler used to deliver it.
		ie.Status = "failed"
		ie.Error = e.quotaErr
	}
	if rep := r.Report; rep != nil {
		ie.Report = &store.ReportSummary{
			Steps:           rep.Steps,
			Clock:           rep.Clock,
			WallSeconds:     rep.Wall.Seconds(),
			Reason:          rep.Reason.String(),
			Checkpoints:     len(rep.Checkpoints),
			CheckpointBytes: rep.CheckpointBytes,
			DroppedObs:      rep.DroppedObservations,
		}
	}
	return ie
}

// onUpdate receives every scheduler status transition (serialised by the
// stream), records it in the job table, maintains the journal's attempt
// markers and the tenant queue-depth bookkeeping, and forwards the
// transition to the job's SSE subscribers.
func (s *Server) onUpdate(u sched.Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if u.Status == sched.Retrying {
		s.retried++
	}
	eid, ok := s.byStream[u.Index]
	if !ok {
		return
	}
	e := s.jobs[eid]
	e.status, e.attempt, e.lastErr = u.Status, u.Attempt, u.Err
	// The scheduler emits no Queued update (Submit does not notify, a worker
	// starts at Running or Cancelled), so queuedNow — set at registration —
	// is cleared by whichever update comes first.
	if e.queuedNow {
		e.queuedNow = false
		s.queued[e.tenant]--
	}
	if u.Status == sched.Running {
		// Anchor the ETA estimator's wall axis at the first dispatch; a
		// retry keeps the original anchor so already-burnt wall time stays
		// in the projection.
		if e.runStart.IsZero() {
			e.runStart = time.Now()
		}
		e.runSpan = e.trace.Start("run", map[string]string{"attempt": strconv.Itoa(u.Attempt)})
		if s.store != nil {
			s.storeErr("started", s.store.Started(eid, u.Attempt))
		}
	} else if e.runSpan != 0 {
		// Any transition away from Running closes the running segment; a
		// retry opens a fresh one, so each attempt's compute time is its own
		// span. The segment carries the clock-advance rate the ETA estimator
		// settled on — the per-job throughput the machine model prices.
		var attrs map[string]string
		if rate := e.eta.Rate(); rate > 0 {
			attrs = map[string]string{"clock_per_sec": strconv.FormatFloat(rate, 'g', -1, 64)}
		}
		e.trace.End(e.runSpan, attrs)
		e.runSpan = 0
	}
	body := map[string]any{
		"id":      eid,
		"name":    u.Name,
		"status":  u.Status.String(),
		"attempt": u.Attempt,
	}
	if u.Err != nil {
		body["error"] = u.Err.Error()
	}
	s.appendEventLocked(e, "status", body)
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

// attach wires the per-submission runner options onto a job: the lossy
// diagnostics pipe every submission gets (with its eviction notifier, so
// back-pressure drops surface as "gap" events instead of vanishing), and —
// when the server is durable — the checkpoint notification that journals
// each snapshot's clock, which is what a restart consults to promise
// "resumes from the newest checkpoint".
func (s *Server) attach(job *sched.Job, entry *jobEntry) {
	job.Opts = append(job.Opts,
		// The step timer feeds the histogram only — per-step spans would
		// flood a bounded trace; the step distribution is a fleet question.
		runner.WithStepTimer(func(d time.Duration) {
			s.histStep.ObserveDuration(d)
		}),
		// Checkpoint writes are rare enough to trace per job AND cheap to
		// histogram. The callback runs on the writing goroutine (step loop
		// or async pipeline) — atomic + per-trace lock, no s.mu.
		runner.WithCheckpointTimer(func(clock float64, d time.Duration) {
			s.histCheckpoint.ObserveDuration(d)
			end := time.Now()
			entry.trace.Observe("checkpoint", end.Add(-d), end,
				map[string]string{"clock": strconv.FormatFloat(clock, 'g', -1, 64)})
		}),
	)
	job.Opts = append(job.Opts, runner.WithAsyncObserver(
		func(step int, d runner.Diagnostics) error {
			s.observe(entry, step, d)
			return nil
		},
		runner.WithAsyncBuffer(s.cfg.DiagBuffer),
		runner.WithBackpressure(runner.DropOldest),
		runner.WithDropNotify(func(dropped int64) {
			// Runs on the observer pipeline goroutine, never the step loop.
			s.mu.Lock()
			s.sseDropped += dropped
			s.appendEventLocked(entry, "gap", map[string]any{
				"missed": dropped,
				"source": "observer",
			})
			s.mu.Unlock()
		}),
	))
	if s.store != nil {
		job.Opts = append(job.Opts, runner.WithCheckpointNotify(
			func(path string, clock float64) {
				// entry.id is assigned under s.mu during registration; a
				// checkpoint cannot fire before the job starts, but take the
				// lock anyway so the read is ordered after the write.
				s.mu.Lock()
				id := entry.id
				s.mu.Unlock()
				s.storeErr("checkpoint", s.store.CheckpointWritten(id, clock))
				// Storage accounting and quota enforcement ride the same
				// notification — it runs off the step loop, so the directory
				// re-measure (and any eviction) never stalls the solver.
				s.noteCheckpoint(entry)
			}))
	}
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
// job's ring. It runs on the job's async observer goroutine, off the step
// loop. Unlike the old push surface this always appends — the ring is the
// replay buffer a later Last-Event-ID resume reads, subscribers or not.
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
	if e.eta != nil && !e.runStart.IsZero() {
		e.eta.Observe(time.Since(e.runStart).Seconds(), d.Clock)
	}
	s.appendEventLocked(e, "diag", body)
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

// Stream exposes the underlying scheduler (tests and embedders).
func (s *Server) Stream() *sched.Stream { return s.stream }

// Drain is the graceful shutdown: stop accepting submissions, close the
// stream so queued and running jobs finish (checkpointing on their
// cadence), and flush every result. If ctx expires first the remaining
// jobs are cancelled through the scheduler and the drain completes on the
// fast path. Drain returns nil for a clean drain and ctx.Err() when the
// deadline forced cancellation.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stream.Close()
	defer s.closeStore()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-s.drained
		return ctx.Err()
	}
}

// Close is the fast shutdown: cancel everything and wait for the flush.
// With a store, in-flight jobs are NOT journaled terminal — the next Open
// over the same StoreDir replays and resumes them.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stream.Close()
	s.cancel()
	<-s.drained
	s.closeStore()
}

// Handler returns the control plane's routes, wrapped in bearer-key
// authentication when a tenant registry is configured.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/diagnostics", s.handleDiagnostics)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoints", s.handleCheckpoints)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoints/{file}", s.handleCheckpointFile)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("POST /v1/admin/reload", s.handleAdminReload)
	// No method restriction: pprof's symbol endpoint accepts POST. The
	// /v1/ prefix keeps the route behind withAuth; the handler itself
	// enforces the admin capability.
	mux.HandleFunc("/v1/admin/pprof/", s.handlePprof)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Tenants == nil {
		return mux
	}
	return s.withAuth(mux)
}

// withAuth authenticates every /v1 request against the key registry and
// hangs the resolved tenant on the request context. /healthz and /metrics
// pass through: they are the probe surface infrastructure scrapes without
// credentials, and they expose no per-job data.
func (s *Server) withAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		key, ok := bearerToken(r)
		if !ok {
			s.recordAdmission("", "401", "missing bearer token", "", 0)
			w.Header().Set("WWW-Authenticate", `Bearer realm="vlasovd"`)
			writeErr(w, http.StatusUnauthorized, fmt.Errorf("serve: missing bearer token"))
			return
		}
		// The lookup goes through the live registry, not the one the server
		// started with: a key rotated out by a reload stops working on the
		// very next request.
		tn, ok := s.registry().Lookup(key)
		if !ok {
			s.recordAdmission("", "401", "unknown bearer token", "", 0)
			w.Header().Set("WWW-Authenticate", `Bearer realm="vlasovd", error="invalid_token"`)
			writeErr(w, http.StatusUnauthorized, fmt.Errorf("serve: unknown bearer token"))
			return
		}
		next.ServeHTTP(w, r.WithContext(tenant.NewContext(r.Context(), tn)))
	})
}

// bearerToken extracts the RFC 6750 bearer credential.
func bearerToken(r *http.Request) (string, bool) {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) <= len(prefix) || !strings.EqualFold(auth[:len(prefix)], prefix) {
		return "", false
	}
	return auth[len(prefix):], true
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// writeErr writes a JSON error body.
func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeRetryErr is writeErr plus a Retry-After hint — on every 429 and on
// the draining 503, so a well-behaved client backs off instead of
// hammering.
func writeRetryErr(w http.ResponseWriter, code int, wait time.Duration, err error) {
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeErr(w, code, err)
}

// maxSpecBytes bounds a POST /v1/jobs body: a JobSpec is a scenario name
// and a few parameters, so anything near this is not a spec (413).
const maxSpecBytes = 1 << 20

// drainRetryAfter is the Retry-After on draining 503s: long enough to
// cover a typical restart, short enough that clients notice the new
// process promptly. The drain deadline itself is the caller's (it lives in
// the ctx handed to Drain), so the handler cannot derive a sharper bound.
const drainRetryAfter = 10 * time.Second

// handleSubmit resolves a JobSpec through the catalog, admits it against
// the tenant's rate limit and queue quota, journals it, and submits it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tn, _ := tenant.FromContext(r.Context())
	tenantName, maxCores := "", 0
	if tn != nil {
		tenantName, maxCores = tn.Name, tn.MaxCores
		// The rate limit gates the request, not just the acceptance — a
		// flood of malformed specs is still a flood.
		if ok, wait := tn.Allow(time.Now()); !ok {
			s.recordAdmission(tenantName, "429", "rate-limited", "", 0)
			writeRetryErr(w, http.StatusTooManyRequests, wait,
				fmt.Errorf("serve: tenant %q rate-limited", tn.Name))
			return
		}
	}
	var spec catalog.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, fmt.Errorf("serve: bad spec: %w", err))
		return
	}
	job, err := s.cfg.Catalog.Job(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	entry := s.newEntry(&job, spec, tenantName, maxCores, time.Now(), 0)
	hash := specHashOf(spec)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.recordAdmission(tenantName, "503", "draining", hash, 0)
		writeRetryErr(w, http.StatusServiceUnavailable, drainRetryAfter,
			fmt.Errorf("serve: draining, not accepting work"))
		return
	}
	if tn != nil && tn.MaxQueued > 0 && s.queued[tn.Name] >= tn.MaxQueued {
		s.mu.Unlock()
		s.recordAdmission(tenantName, "429",
			fmt.Sprintf("queue quota (%d) exhausted", tn.MaxQueued), hash, 0)
		writeRetryErr(w, http.StatusTooManyRequests, time.Second,
			fmt.Errorf("serve: tenant %q queue quota (%d) exhausted", tn.Name, tn.MaxQueued))
		return
	}
	id := s.allocIDLocked()
	if s.store != nil {
		// Journal before the stream sees the job, and fail closed: a 202 is
		// a promise that the job survives a restart, so a submission the
		// journal refused is turned away with nothing to undo. Canonical
		// bytes, so the journal round-trips the spec byte-stably across
		// write/replay/compact cycles.
		raw, err := spec.Canonical()
		if err == nil {
			err = s.store.Submitted(id, entry.tenant, raw, entry.submitted)
		}
		if err != nil {
			s.mu.Unlock()
			s.recordAdmission(tenantName, "503", err.Error(), hash, 0)
			writeRetryErr(w, http.StatusServiceUnavailable, drainRetryAfter,
				fmt.Errorf("serve: job not journaled: %w", err))
			return
		}
		// The submitted record reserved the job's first block of event
		// sequence numbers: its first event costs no append of its own.
		entry.seqReserved = store.EventSeqBlock
	}
	if err := s.registerLocked(id, job, entry); err != nil {
		if s.store != nil {
			// The stream turned down a job the journal already holds:
			// retract it, or the next boot replays work its client was
			// told was refused.
			s.storeErr("terminal", s.store.Terminal(id, "cancelled", "submission rejected: "+err.Error()))
		}
		s.mu.Unlock()
		// A closed or cancelled stream is the service shutting down — the
		// same 503 as the draining gate. Only the duplicate-checkpoint-key
		// rejection is a true conflict with existing state.
		if errors.Is(err, sched.ErrStreamClosed) ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.recordAdmission(tenantName, "503", err.Error(), hash, 0)
			writeRetryErr(w, http.StatusServiceUnavailable, drainRetryAfter, err)
			return
		}
		writeErr(w, http.StatusConflict, err)
		return
	}
	s.submitted++
	s.mu.Unlock()
	// The admission span brackets spec decode, catalog resolution, quota
	// checks and journaling — the control-plane overhead a client pays
	// before its job is even queued.
	attrs := map[string]string{"scenario": spec.Scenario}
	if tenantName != "" {
		attrs["tenant"] = tenantName
	}
	entry.trace.Observe("admission", entry.submitted, time.Now(), attrs)
	s.recordAdmission(tenantName, "accept", "", hash, id)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     id,
		"name":   job.Name,
		"status": sched.Queued.String(),
	})
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
// (onUpdate writes the entry, and the ETA estimator is mutated, under it).
func statusBody(e *jobEntry) map[string]any {
	status := e.shownStatus().String()
	errMsg := ""
	if e.lastErr != nil {
		errMsg = e.lastErr.Error()
	}
	if e.quotaErr != "" {
		// A storage-quota kill travels through the scheduler as a
		// cancellation; the status document reports the truth.
		status = sched.Failed.String()
		errMsg = e.quotaErr
	}
	body := map[string]any{
		"id":        e.id,
		"name":      e.name,
		"scenario":  e.spec.Scenario,
		"status":    status,
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
	if errMsg != "" {
		body["error"] = errMsg
	}
	// A live run with an established clock-advance rate carries its wall
	// ETA — the online face of the machine model's time-to-solution. A
	// queued or just-started job has no defensible estimate and omits the
	// field rather than inventing one.
	if e.result == nil && e.eta != nil {
		if eta, ok := e.eta.ETASeconds(); ok {
			body["eta_seconds"] = eta
		}
	}
	if e.result != nil && e.result.Report != nil {
		rep := e.result.Report
		body["report"] = map[string]any{
			"steps":            rep.Steps,
			"clock":            safeNum(rep.Clock),
			"wall_seconds":     rep.Wall.Seconds(),
			"reason":           rep.Reason.String(),
			"checkpoints":      len(rep.Checkpoints),
			"checkpoint_bytes": rep.CheckpointBytes,
			"dropped_obs":      rep.DroppedObservations,
		}
	}
	return body
}

// lookup resolves the {id} path value to the job's entry — or, when the
// bounded history has already evicted the job, to its record in the durable
// artifact index (ie non-nil, entry nil). Tenant scoping is enforced on both
// paths: another tenant's job is 403, not invisible — ids are dense
// integers, so a 404 would leak nothing an enumeration does not already
// reveal, and the explicit status is the more debuggable contract.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*jobEntry, *store.IndexEntry, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: bad job id %q", r.PathValue("id")))
		return nil, nil, false
	}
	s.mu.Lock()
	e, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		if s.index != nil {
			if ie, found := s.index.Get(id); found {
				if tn, authed := tenant.FromContext(r.Context()); authed && ie.Tenant != tn.Name {
					s.recordAdmission(tn.Name, "403",
						fmt.Sprintf("job %d belongs to another tenant", id), "", id)
					writeErr(w, http.StatusForbidden, fmt.Errorf("serve: job %d belongs to another tenant", id))
					return nil, nil, false
				}
				return nil, &ie, true
			}
		}
		writeErr(w, http.StatusNotFound, fmt.Errorf("serve: no job %d", id))
		return nil, nil, false
	}
	if tn, authed := tenant.FromContext(r.Context()); authed && e.tenant != tn.Name {
		s.recordAdmission(tn.Name, "403",
			fmt.Sprintf("job %d belongs to another tenant", id), "", id)
		writeErr(w, http.StatusForbidden, fmt.Errorf("serve: job %d belongs to another tenant", id))
		return nil, nil, false
	}
	return e, nil, true
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
	if rep := ie.Report; rep != nil {
		body["report"] = map[string]any{
			"steps":            rep.Steps,
			"clock":            safeNum(rep.Clock),
			"wall_seconds":     rep.WallSeconds,
			"reason":           rep.Reason,
			"checkpoints":      rep.Checkpoints,
			"checkpoint_bytes": rep.CheckpointBytes,
			"dropped_obs":      rep.DroppedObs,
		}
	}
	return body
}

// handleList reports every retained submission, newest last, scoped to the
// authenticated tenant when tenancy is on.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("archived") == "1" {
		s.handleListArchived(w, r)
		return
	}
	tn, authed := tenant.FromContext(r.Context())
	s.mu.Lock()
	ids := make([]int, 0, len(s.jobs))
	for id, e := range s.jobs {
		if authed && e.tenant != tn.Name {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]map[string]any, 0, len(ids))
	for _, id := range ids {
		out = append(out, statusBody(s.jobs[id]))
	}
	depth := s.stream.Pending()
	if authed {
		depth = s.queued[tn.Name]
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out, "queued": depth})
}

// handleGet reports one submission — from live state, or from the artifact
// index once the bounded history has evicted it.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	e, ie, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if ie != nil {
		writeJSON(w, http.StatusOK, statusBodyIndex(ie))
		return
	}
	s.mu.Lock()
	body := statusBody(e)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, body)
}

// handleCancel cancels one submission (queued or running). Unlike a
// shutdown cancellation, a client's DELETE is journaled terminal at cancel
// time: the user's decision must survive a crash, not be undone by a
// recovery replay.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	e, ie, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if ie != nil {
		writeErr(w, http.StatusConflict,
			fmt.Errorf("serve: job %d already %s", ie.ID, ie.Status))
		return
	}
	if !s.stream.Cancel(e.sid) {
		s.mu.Lock()
		status := e.shownStatus()
		s.mu.Unlock()
		writeErr(w, http.StatusConflict,
			fmt.Errorf("serve: job %d already %s", e.id, status))
		return
	}
	s.mu.Lock()
	if !e.cancelled {
		e.cancelled = true
		if s.store != nil {
			s.storeErr("terminal", s.store.Terminal(e.id, "cancelled", ""))
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]any{"id": e.id, "status": "cancelling"})
}

// handleScenarios serves the catalog's contract surface.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": s.cfg.Catalog.Scenarios()})
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":             true,
		"draining":       draining,
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// escapeLabel escapes a label value per the Prometheus text exposition
// format (v0.0.4): backslash, double quote, and newline — and nothing
// else. fmt's %q is NOT this escaping: it emits \uXXXX for non-ASCII, and
// a tenant named "団体" would produce a label value no Prometheus parser
// accepts. ASCII-only values pass through byte-identical, so existing
// scrapes and greps keep matching.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace

// handleMetrics serves the Prometheus text exposition format (v0.0.4):
// # HELP/# TYPE annotations per family, counters and gauges, and
// per-tenant labelled gauges for core usage and queue depth. The sample
// lines keep the exact names and shapes of the pre-tenancy plain-text
// endpoint, so existing scrapes and greps continue to match.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	s.mu.Lock()
	submitted, completed, failed, cancelled, retried, recovered :=
		s.submitted, s.completed, s.failed, s.cancelled, s.retried, s.recovered
	sseDropped, sseReplayed, stepsObserved := s.sseDropped, s.sseReplayed, s.stepsObserved
	// Step throughput is windowed scrape-to-scrape: the rate since the
	// previous /metrics read, which is what a dashboard actually plots.
	throughput := 0.0
	if window := now.Sub(s.thrStart).Seconds(); window > 0 {
		throughput = float64(stepsObserved-s.thrBase) / window
	}
	s.thrBase = stepsObserved
	s.thrStart = now
	queued := make(map[string]int, len(s.queued))
	for name, n := range s.queued {
		queued[name] = n
	}
	storage := make(map[string]int64, len(s.storage))
	for name, n := range s.storage {
		storage[name] = n
	}
	admission := make(map[admKey]int64, len(s.admission))
	for k, n := range s.admission {
		admission[k] = n
	}
	reloads, reloadsFailed := s.reloads, s.reloadsFailed
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("vlasovd_jobs_submitted_total", "Jobs accepted by POST /v1/jobs.", submitted)
	counter("vlasovd_jobs_completed_total", "Jobs that reached Done.", completed)
	counter("vlasovd_jobs_failed_total", "Jobs that reached Failed.", failed)
	counter("vlasovd_jobs_cancelled_total", "Jobs that reached Cancelled.", cancelled)
	counter("vlasovd_jobs_retried_total", "Retry attempts across all jobs.", retried)
	counter("vlasovd_jobs_recovered_total", "Journaled jobs re-queued at startup.", recovered)
	if s.registry() != nil {
		counter("vlasovd_key_reloads_total", "Key-file reloads applied (SIGHUP or /v1/admin/reload).", reloads)
		counter("vlasovd_key_reload_failures_total", "Key-file reloads rejected by validation (old registry stayed live).", reloadsFailed)
	}
	if s.store != nil {
		fmt.Fprintf(w, "# HELP vlasovd_journal_bytes On-disk size of the job journal (online compaction keeps it bounded).\n# TYPE vlasovd_journal_bytes gauge\nvlasovd_journal_bytes %d\n", s.store.Size())
		// Every operation is emitted, zeros included, so an alert on the
		// series exists before the first failure.
		fmt.Fprintf(w, "# HELP vlasovd_store_errors_total Journal, index and audit appends that failed after their job was accepted (the job carried on without them).\n# TYPE vlasovd_store_errors_total counter\n")
		for _, op := range storeOps {
			fmt.Fprintf(w, "vlasovd_store_errors_total{op=\"%s\"} %d\n", op, s.storeErrs[op].Load())
		}
	}
	counter("vlasovd_sse_dropped_total", "Diagnostics events lost before SSE delivery (observer back-pressure plus ring evictions seen by connected clients).", sseDropped)
	counter("vlasovd_sse_replayed_total", "Events re-served from per-job rings on Last-Event-ID resumes.", sseReplayed)
	counter("vlasovd_steps_observed_total", "Solver steps observed through the diagnostics pipeline across all jobs.", stepsObserved)
	fmt.Fprintf(w, "# HELP vlasovd_step_throughput Observed solver steps per second since the previous scrape.\n# TYPE vlasovd_step_throughput gauge\nvlasovd_step_throughput %g\n", throughput)
	// The latency histograms: fixed log-spaced buckets (100µs–300s), fed
	// atomically off the hot paths, snapshot-consistent per scrape.
	s.histQueueWait.WriteProm(w)
	s.histDispatch.WriteProm(w)
	s.histStep.WriteProm(w)
	s.histCheckpoint.WriteProm(w)
	gauge("vlasovd_queue_depth", "Jobs queued, not yet dispatched.", s.stream.Pending())
	if b := s.stream.Budget(); b != nil {
		gauge("vlasovd_budget_cores_total", "Cores the budget divides.", b.Total())
		gauge("vlasovd_budget_cores_in_use", "Cores currently claimed by live jobs.", b.Held())
		gauge("vlasovd_budget_jobs_live", "Live core leases.", b.Live())
	}
	// Per-tenant gauges: every registered tenant is emitted (zeros
	// included, so dashboards see a stable series set), plus any tenant
	// the journal resurrected that the current key file no longer lists.
	names := make(map[string]bool)
	if reg := s.registry(); reg != nil {
		// The LIVE registry drives the series set: a tenant added by a
		// reload appears on the next scrape, zeros included.
		for _, tn := range reg.Tenants() {
			names[tn.Name] = true
		}
	}
	for name := range storage {
		if name != "" {
			names[name] = true
		}
	}
	var held map[string]int
	if b := s.stream.Budget(); b != nil {
		held = b.HeldByTenant()
		for name := range held {
			if name != "" {
				names[name] = true
			}
		}
	}
	for name := range queued {
		if name != "" {
			names[name] = true
		}
	}
	if len(names) > 0 {
		ordered := make([]string, 0, len(names))
		for name := range names {
			ordered = append(ordered, name)
		}
		sort.Strings(ordered)
		fmt.Fprintf(w, "# HELP vlasovd_tenant_cores_in_use Cores currently claimed by the tenant's jobs.\n")
		fmt.Fprintf(w, "# TYPE vlasovd_tenant_cores_in_use gauge\n")
		for _, name := range ordered {
			fmt.Fprintf(w, "vlasovd_tenant_cores_in_use{tenant=\"%s\"} %d\n", escapeLabel(name), held[name])
		}
		fmt.Fprintf(w, "# HELP vlasovd_tenant_queue_depth The tenant's jobs queued, not yet dispatched.\n")
		fmt.Fprintf(w, "# TYPE vlasovd_tenant_queue_depth gauge\n")
		for _, name := range ordered {
			fmt.Fprintf(w, "vlasovd_tenant_queue_depth{tenant=\"%s\"} %d\n", escapeLabel(name), queued[name])
		}
		fmt.Fprintf(w, "# HELP vlasovd_tenant_storage_bytes Checkpoint bytes on disk tracked against the tenant's storage quota.\n")
		fmt.Fprintf(w, "# TYPE vlasovd_tenant_storage_bytes gauge\n")
		for _, name := range ordered {
			fmt.Fprintf(w, "vlasovd_tenant_storage_bytes{tenant=\"%s\"} %d\n", escapeLabel(name), storage[name])
		}
	}
	if len(admission) > 0 {
		// Admission outcomes, one series per (tenant, outcome) observed.
		// tenant="" is a request that never authenticated (the 401s).
		keys := make([]admKey, 0, len(admission))
		for k := range admission {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].tenant != keys[j].tenant {
				return keys[i].tenant < keys[j].tenant
			}
			return keys[i].outcome < keys[j].outcome
		})
		fmt.Fprintf(w, "# HELP vlasovd_admission_total Admission decisions by tenant and outcome (accept, 401, 403, 429, 503).\n")
		fmt.Fprintf(w, "# TYPE vlasovd_admission_total counter\n")
		for _, k := range keys {
			fmt.Fprintf(w, "vlasovd_admission_total{tenant=\"%s\",outcome=\"%s\"} %d\n",
				escapeLabel(k.tenant), escapeLabel(k.outcome), admission[k])
		}
	}
}

// resumeCursor extracts the client's replay position: the standard
// Last-Event-ID header EventSource sends on reconnect, or the
// ?last_event_id= query parameter for clients (curl) that cannot set
// headers. Zero means "from the beginning of the retained window".
func resumeCursor(r *http.Request) (int64, bool) {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("last_event_id")
	}
	if v == "" {
		return 0, false
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// handleDiagnostics streams a job's events as server-sent events: "status"
// on every scheduler transition, "diag" per observed step, "gap" when
// events were lost (observer back-pressure, ring eviction, or an
// unresolvable resume id), and a final "done" carrying the terminal status
// document. Every ring event carries its sequence number as the SSE id:
// a client that reconnects with Last-Event-ID (or ?last_event_id=) resumes
// exactly after the last event it saw — the handler replays the missed
// window from the job's ring, then goes live. Replay is exactly-once over
// the retained window; a window that has been evicted is reported as an
// explicit "gap" with the missed count, never silently skipped. A job
// already terminal replays its retained tail and closes after "done".
func (s *Server) handleDiagnostics(w http.ResponseWriter, r *http.Request) {
	e, ie, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if ie != nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf(
			"serve: job %d has been evicted from live history and its diagnostics ring is gone; status and checkpoints remain at /v1/jobs/%d", ie.ID, ie.ID))
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeErr(w, http.StatusNotImplemented, fmt.Errorf("serve: response writer cannot stream"))
		return
	}
	cursor, resuming := resumeCursor(r)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Flush the headers now: a subscriber to a still-queued job must see
	// the stream open immediately, not block header-less until the first
	// event fires.
	fl.Flush()

	// Register the wake-up channel before the first flush: an event landing
	// between flush and registration would otherwise be announced to
	// nobody. Capacity 1 — a pending token already means "ring has news".
	sub := make(chan struct{}, 1)
	s.mu.Lock()
	if head := e.ring.head(); cursor > head {
		// The id cannot have come from this ring (a restarted daemon's
		// rings restart at 1, or the client is guessing). Clamping it
		// silently would be indistinguishable from a clean resume, so tell
		// the client its position did not resolve before going live.
		cursor = head
		t, data := marshalEvent("gap", map[string]any{"source": "reset"})
		s.mu.Unlock()
		if writeSSE(w, 0, t, data) != nil {
			return
		}
		s.mu.Lock()
	}
	e.subs[sub] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(e.subs, sub)
		s.mu.Unlock()
	}()

	firstFlush := true
	// flush drains the ring from the cursor: a gap notice if part of the
	// window was evicted, then every retained event past the cursor. It
	// reports done=true when the terminal event went out.
	flush := func() (done bool, err error) {
		s.mu.Lock()
		evs, missed := e.ring.since(cursor)
		if len(evs) > 0 {
			cursor = evs[len(evs)-1].seq
		}
		if missed > 0 {
			// Ring eviction observed by a connected client is a real loss.
			s.sseDropped += missed
		}
		if resuming && firstFlush {
			s.sseReplayed += int64(len(evs))
		}
		var synth map[string]any
		if len(evs) == 0 && e.result != nil {
			// Terminal with nothing left to replay: the client already saw
			// (at least) the done event — re-send it so the stream still
			// closes with the terminal document.
			synth = statusBody(e)
		}
		s.mu.Unlock()
		firstFlush = false
		wrote := false
		defer func() {
			if wrote {
				fl.Flush()
			}
		}()
		if missed > 0 {
			t, data := marshalEvent("gap", map[string]any{"missed": missed, "source": "ring"})
			if err := writeSSE(w, 0, t, data); err != nil {
				return false, err
			}
			wrote = true
		}
		for _, ev := range evs {
			if err := writeSSE(w, ev.seq, ev.typ, ev.data); err != nil {
				return false, err
			}
			wrote = true
			if ev.typ == "done" {
				return true, nil
			}
		}
		if synth != nil {
			t, data := marshalEvent("done", synth)
			if err := writeSSE(w, 0, t, data); err != nil {
				return false, err
			}
			wrote = true
			return true, nil
		}
		return false, nil
	}

	// The ticker backstops the wake-up channel: delivery correctness lives
	// in the ring, so a missed wake costs latency, never an event.
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		if done, err := flush(); done || err != nil {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-sub:
		case <-tick.C:
		}
	}
}

// writeSSE writes one event in text/event-stream framing. A positive id
// becomes the event's `id:` line — the resume cursor the client hands back
// as Last-Event-ID; synthetic per-connection events (gap, re-sent done)
// carry no id so they never displace the client's real position.
func writeSSE(w io.Writer, id int64, typ string, data []byte) error {
	var err error
	if id > 0 {
		_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, typ, data)
	} else {
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", typ, data)
	}
	return err
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

// handleCheckpoints lists a job's snapshot artifacts, oldest first. For an
// evicted job the listing answers from the artifact index — the record of
// what the run left behind at terminal time — without touching the
// filesystem.
func (s *Server) handleCheckpoints(w http.ResponseWriter, r *http.Request) {
	e, ie, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if ie != nil {
		arts := ie.Artifacts
		if arts == nil {
			arts = []store.Artifact{}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"job": ie.Name, "archived": true, "checkpoints": arts,
		})
		return
	}
	if e.ckptDir == "" {
		writeErr(w, http.StatusNotFound, fmt.Errorf("serve: checkpointing disabled"))
		return
	}
	infos, err := collectArtifacts(e.ckptDir)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": e.name, "checkpoints": infos})
}

// handleCheckpointFile downloads one artifact. The file name is validated
// against the checkpoint naming scheme — this endpoint serves snapshots,
// not the filesystem.
func (s *Server) handleCheckpointFile(w http.ResponseWriter, r *http.Request) {
	e, ie, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var dir string
	if ie != nil {
		// Evicted job: the index remembers the tenant and name that key the
		// checkpoint directory, and the files themselves outlive eviction.
		if s.cfg.CheckpointDir != "" && ie.Name != "" {
			dir = sched.JobCheckpointDir(s.cfg.CheckpointDir, ie.Tenant, ie.Name)
		}
	} else {
		dir = e.ckptDir
	}
	if dir == "" {
		writeErr(w, http.StatusNotFound, fmt.Errorf("serve: checkpointing disabled"))
		return
	}
	name := r.PathValue("file")
	if !strings.HasPrefix(name, "ckpt_") || !strings.HasSuffix(name, ".v6d") ||
		strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("serve: %q is not a checkpoint file name", name))
		return
	}
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			writeErr(w, http.StatusNotFound, fmt.Errorf("serve: no checkpoint %q", name))
			return
		}
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", name))
	http.ServeContent(w, r, name, time.Time{}, f)
}
