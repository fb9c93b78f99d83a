// The live-administration tier of the control plane: hot key reload,
// the admission audit trail, and per-tenant checkpoint-storage quotas.
//
// The tenant registry lives behind an atomic pointer. The key file is
// re-read on SIGHUP (cmd/vlasovd) or POST /v1/admin/reload (an admin
// tenant); a file that parses and validates swaps in atomically — new
// requests see the new keys and quotas immediately, while running jobs
// keep the tenant identity they were admitted under. A file that fails
// validation is rejected wholesale: the old registry stays live, because
// a half-applied key rotation is worse than a late one.
//
// Every admission decision — accept, 401, 403, 429, 503 — lands in the
// store's append-only audit log (audit.v6da) and in the
// vlasovd_admission_total{tenant,outcome} counter, so "why was my job
// refused at 3am" is answerable from disk, not from memory of a process
// that may have restarted since.
//
// Storage quotas ride the checkpoint timer callback: each snapshot write
// re-measures the job's checkpoint directory (the runner prunes its own
// keep-N window, so measuring beats bookkeeping), and a tenant over its
// max_storage_bytes has its oldest snapshots evicted — never the newest
// snapshot of a live job, that is the resume floor — until it fits. A
// tenant whose floor alone exceeds the quota has the triggering job
// journaled failed with an explanatory error.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"vlasov6d/internal/catalog"
	"vlasov6d/internal/runner"
	"vlasov6d/internal/store"
	"vlasov6d/internal/tenant"
)

// admKey keys the vlasovd_admission_total counter: one series per
// (tenant, outcome) pair, where outcome is "accept" or the refusing
// status code as a string.
type admKey struct {
	tenant, outcome string
}

// registry returns the live tenant registry — the hot-reloadable view
// every lookup must go through. Nil means the daemon runs open (no
// tenancy was configured at start; a reload cannot turn tenancy on).
func (s *Server) registry() *tenant.Registry {
	return s.tenants.Load()
}

// ReloadKeys re-reads the configured key file and swaps the registry
// atomically. Validation failures reject the whole file: the old
// registry stays live and the error is returned (and audited). Running
// and queued jobs are untouched either way — they carry their admitted
// tenant identity; only future requests see the new keys and quotas.
func (s *Server) ReloadKeys() (int, error) { return s.reloadKeys("") }

// reloadKeys is ReloadKeys with the acting principal recorded in the
// audit log ("" for a signal-driven reload, which has no tenant).
func (s *Server) reloadKeys(actor string) (int, error) {
	if s.registry() == nil || s.cfg.KeysPath == "" {
		return 0, fmt.Errorf("serve: no reloadable key file (daemon started without tenancy)")
	}
	reg, err := tenant.Load(s.cfg.KeysPath)
	if err != nil {
		s.mu.Lock()
		s.reloadsFailed++
		s.mu.Unlock()
		s.auditAppend(store.AuditRecord{Tenant: actor, Outcome: "reload_failed", Reason: err.Error()})
		return 0, err
	}
	s.tenants.Store(reg)
	s.mu.Lock()
	s.reloads++
	s.mu.Unlock()
	s.auditAppend(store.AuditRecord{
		Tenant:  actor,
		Outcome: "reload",
		Reason:  fmt.Sprintf("%d tenants from %s", len(reg.Tenants()), s.cfg.KeysPath),
	})
	return len(reg.Tenants()), nil
}

// handleAdminReload is POST /v1/admin/reload: the HTTP face of
// ReloadKeys, gated on the authenticated tenant's admin capability. An
// unreadable or invalid key file is 422 — the caller's rotation is
// broken and the old keys are still live, which the body says outright.
func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	tn, authed := tenant.FromContext(r.Context())
	if !authed {
		// Open mode has no admin surface: there is nothing to rotate.
		writeErr(w, http.StatusNotFound, fmt.Errorf("serve: no tenancy configured"))
		return
	}
	if !tn.Admin {
		s.recordAdmission(tn.Name, "403", "admin capability required for /v1/admin/reload", "", 0)
		writeErr(w, http.StatusForbidden, fmt.Errorf("serve: tenant %q is not an admin", tn.Name))
		return
	}
	n, err := s.reloadKeys(tn.Name)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity,
			fmt.Errorf("serve: key file rejected, previous registry stays live: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"reloaded": true, "tenants": n})
}

// auditAppend stamps and writes one audit record; a no-op without a
// store (the audit log shares the journal's directory and durability).
func (s *Server) auditAppend(rec store.AuditRecord) {
	if s.audit == nil {
		return
	}
	rec.UnixNano = time.Now().UnixNano()
	s.storeErr("audit", s.audit.Append(rec))
}

// recordAdmission counts one admission decision for /metrics and appends
// it to the audit log. Callers must NOT hold s.mu.
func (s *Server) recordAdmission(tenantName, outcome, reason, specHash string, jobID int) {
	s.mu.Lock()
	s.admission[admKey{tenantName, outcome}]++
	s.mu.Unlock()
	s.auditAppend(store.AuditRecord{
		Tenant:   tenantName,
		Outcome:  outcome,
		Reason:   reason,
		SpecHash: specHash,
		JobID:    jobID,
	})
}

// specHashOf is the SHA-256 hex of the spec's canonical bytes — the same
// bytes the journal persists, so an audit entry's hash can be matched
// against the journaled submission it admitted.
func specHashOf(spec catalog.JobSpec) string {
	raw, err := spec.Canonical()
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// scanCheckpointBytes sums the checkpoint files under one job's
// directory (0 on any listing error — quota accounting degrades open,
// never blocks a healthy job on a transient stat failure).
func scanCheckpointBytes(dir string) int64 {
	paths, err := runner.ListCheckpoints(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil {
			total += st.Size()
		}
	}
	return total
}

// noteCheckpoint runs on the job's step loop after each checkpoint, with
// or without a journal: re-measure the job's directory (the runner
// prunes its own keep-N window, so measuring self-corrects where delta
// bookkeeping would drift), fold the change into the tenant's tracked
// total, and enforce the tenant's storage quota when one is set.
func (s *Server) noteCheckpoint(e *jobEntry) {
	s.mu.Lock()
	dir, tenantName := e.ckptDir, e.tenant
	s.mu.Unlock()
	if dir == "" {
		return
	}
	bytes := scanCheckpointBytes(dir)
	s.mu.Lock()
	s.storage[tenantName] += bytes - e.ckptBytes
	e.ckptBytes = bytes
	total := s.storage[tenantName]
	s.mu.Unlock()
	reg := s.registry()
	if reg == nil || tenantName == "" {
		return
	}
	// Quotas come from the LIVE registry: a reload that tightens (or
	// grants) max_storage_bytes applies to the very next snapshot.
	tn, ok := reg.ByName(tenantName)
	if !ok || tn.MaxStorageBytes <= 0 || total <= tn.MaxStorageBytes {
		return
	}
	s.enforceStorageQuota(e, tn)
}

// enforceStorageQuota brings one over-quota tenant back under
// max_storage_bytes: evict the tenant's oldest snapshots — across all
// its tracked jobs, oldest clock first — sparing each live job's newest
// snapshot (the resume floor). If the floor alone still exceeds the
// quota, the triggering job is journaled failed with an explanatory
// error and cancelled through the scheduler; its snapshots then stop
// growing and its peers keep their resume currency.
func (s *Server) enforceStorageQuota(trigger *jobEntry, tn *tenant.Tenant) {
	evictStart := time.Now()
	type tracked struct {
		e    *jobEntry
		dir  string
		live bool
	}
	s.mu.Lock()
	var jobs []tracked
	for _, e := range s.jobs {
		if e.tenant == tn.Name && e.ckptDir != "" {
			jobs = append(jobs, tracked{e: e, dir: e.ckptDir, live: e.result == nil && e.quotaErr == ""})
		}
	}
	s.mu.Unlock()

	// All file I/O happens off s.mu. ListCheckpoints returns name order,
	// and the fixed-width clock in each name makes name order clock
	// order — both within a job and, near enough for an eviction policy,
	// across the tenant's jobs.
	type snapshot struct {
		job   int // index into jobs
		path  string
		name  string
		bytes int64
	}
	var files []snapshot
	totals := make([]int64, len(jobs))
	protected := make(map[string]bool)
	var total int64
	for i := range jobs {
		paths, err := runner.ListCheckpoints(jobs[i].dir)
		if err != nil {
			continue
		}
		for _, p := range paths {
			st, err := os.Stat(p)
			if err != nil {
				continue
			}
			files = append(files, snapshot{job: i, path: p, name: filepath.Base(p), bytes: st.Size()})
			totals[i] += st.Size()
			total += st.Size()
		}
		if jobs[i].live && len(paths) > 0 {
			protected[paths[len(paths)-1]] = true
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })
	for _, f := range files {
		if total <= tn.MaxStorageBytes {
			break
		}
		if protected[f.path] {
			continue
		}
		if os.Remove(f.path) != nil {
			continue
		}
		total -= f.bytes
		totals[f.job] -= f.bytes
	}

	s.mu.Lock()
	var freed int64
	for i := range jobs {
		e := jobs[i].e
		freed += e.ckptBytes - totals[i]
		s.storage[tn.Name] += totals[i] - e.ckptBytes
		e.ckptBytes = totals[i]
	}
	failNow := s.storage[tn.Name] > tn.MaxStorageBytes &&
		trigger.result == nil && trigger.quotaErr == ""
	var sid int
	if failNow {
		trigger.quotaErr = fmt.Sprintf(
			"serve: tenant %q over storage quota (%d bytes) even after evicting old snapshots",
			tn.Name, tn.MaxStorageBytes)
		sid = trigger.sid
		if s.store != nil {
			s.storeErr("terminal", s.store.Terminal(trigger.id, "failed", trigger.quotaErr))
		}
	}
	s.mu.Unlock()
	// The eviction lands in the triggering job's trace: quota enforcement
	// is wall time the tenant's snapshot pressure cost this job's step loop.
	trigger.trace.Observe("quota_eviction", evictStart, time.Now(), map[string]string{
		"freed_bytes": strconv.FormatInt(freed, 10),
		"failed":      strconv.FormatBool(failNow),
	})
	if failNow {
		// The scheduler's cancel path stops the run; finish sees quotaErr
		// and reports the job failed, not cancelled.
		s.stream.Cancel(sid)
	}
}
