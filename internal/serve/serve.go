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
// off the hot step loop; a full queue drops its oldest), so a slow or absent
// SSE client never stalls a solver. Delivery is replayable: every event a
// job emits is stamped with a monotonic sequence number and retained in a
// bounded per-job ring (Config.RingSize), and the SSE stream carries the
// sequence as its `id:` line. A client that disconnects mid-run resumes
// with a `Last-Event-ID` header (or ?last_event_id=): the handler replays
// the missed window from the ring before going live, delivering every
// retained event exactly once. Loss is never silent — when the requested
// window has been evicted from the ring, or the observer pipeline dropped
// observations (read off the jump in the delivered step numbers), the
// stream carries an explicit "gap" event with the missed count. Running
// jobs also report an eta_seconds projection (internal/machine's online
// TTS estimator fed by the same diagnostics) in their status documents.
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
// attempt start, the event-number reservations, and the terminal outcome.
// Snapshots are not journaled: the directory they land in is their record.
// On the next start the server replays the journal and re-queues every
// unfinished job under its original id; because a recovered job's name —
// and so its checkpoint directory — derives from the same canonical spec,
// the scheduler's restore path resumes it from its newest snapshot instead
// of re-running it. Recovery resolves journaled specs concurrently (bounded
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
// online past its size and record-count thresholds, and per-tenant
// max_storage_bytes quotas are enforced as each checkpoint is written.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vlasov6d/internal/catalog"
	"vlasov6d/internal/obs"
	"vlasov6d/internal/par"
	"vlasov6d/internal/sched"
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
	// JournalCompactRecords arms online journal compaction by record
	// count: when the journal crosses it, or 1 MiB, and has terminal
	// records to drop, it is rewritten in place — under the store's own
	// lock, safe against concurrent appends. 0 picks
	// DefaultJournalCompactRecords; negative disables the record threshold.
	JournalCompactRecords int
}

// Online journal-compaction thresholds: crossing either triggers a live
// rewrite. Both are far above a healthy journal's steady state — boot
// compaction already drops terminal jobs — so the online pass only fires
// on long uptimes, which is exactly when it is needed.
const (
	journalCompactBytes          = 1 << 20
	DefaultJournalCompactRecords = 4096
)

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
		var err error
		if s.store, err = store.Open(cfg.StoreDir); err == nil {
			s.index, err = store.OpenIndex(cfg.StoreDir)
		}
		if err == nil {
			s.audit, err = store.OpenAudit(cfg.StoreDir)
		}
		if err != nil {
			cancel()
			s.closeStore()
			return nil, err
		}
		compactRecords := cfg.JournalCompactRecords
		if compactRecords == 0 {
			compactRecords = DefaultJournalCompactRecords
		}
		// Negative disables the threshold, which the store spells 0.
		s.store.SetAutoCompact(journalCompactBytes, max(compactRecords, 0))
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
var storeOps = []string{"audit", "events", "index", "started", "terminal"}

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
	par.Ranges(len(pending), par.Workers(max(s.cfg.Budget, 0), len(pending)), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := json.Unmarshal(pending[i].Spec, &specs[i]); err != nil {
				res[i].err = fmt.Errorf("journaled spec unreadable: %w", err)
			} else if res[i].job, err = s.cfg.Catalog.Job(specs[i]); err != nil {
				res[i].err = fmt.Errorf("journaled spec no longer resolves: %w", err)
			}
		}
		return nil
	})
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
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a drain with no grace period
	s.Drain(ctx)
}
