// The HTTP surface: routing, bearer-key authentication, and the handlers for
// submission, status, cancellation, the SSE stream and checkpoint artifacts.
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
	"sort"
	"strconv"
	"strings"
	"time"

	"vlasov6d/internal/catalog"
	"vlasov6d/internal/sched"
	"vlasov6d/internal/store"
	"vlasov6d/internal/tenant"
)

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
	var ie *store.IndexEntry
	owner := ""
	if ok {
		owner = e.tenant
	} else if s.index != nil {
		if rec, found := s.index.Get(id); found {
			ie, owner, ok = &rec, rec.Tenant, true
		}
	}
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("serve: no job %d", id))
		return nil, nil, false
	}
	if tn, authed := tenant.FromContext(r.Context()); authed && owner != tn.Name {
		s.recordAdmission(tn.Name, "403",
			fmt.Sprintf("job %d belongs to another tenant", id), "", id)
		writeErr(w, http.StatusForbidden, fmt.Errorf("serve: job %d belongs to another tenant", id))
		return nil, nil, false
	}
	return e, ie, true
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

// sseWriteTimeout bounds each write and flush of an SSE stream: a client
// that stops reading holds its handler, and the handler's subscription, for
// at most this long once the socket buffers fill. A variable only so tests
// can shorten it.
var sseWriteTimeout = 5 * time.Second

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
// Every write and flush runs under sseWriteTimeout, so a stalled client
// costs the daemon a bounded wait, not a goroutine for the life of its
// connection.
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
	if _, canFlush := w.(http.Flusher); !canFlush {
		writeErr(w, http.StatusNotImplemented, fmt.Errorf("serve: response writer cannot stream"))
		return
	}
	cursor, resuming := resumeCursor(r)

	// send and flush arm the write deadline before they touch the socket.
	// A writer that cannot take one (a test recorder) streams without it.
	rc := http.NewResponseController(w)
	arm := func() { _ = rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout)) }
	send := func(id int64, typ string, data []byte) error {
		arm()
		return writeSSE(w, id, typ, data)
	}
	flush := func() error {
		arm()
		return rc.Flush()
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Flush the headers now: a subscriber to a still-queued job must see
	// the stream open immediately, not block header-less until the first
	// event fires.
	if flush() != nil {
		return
	}

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
		if send(0, t, data) != nil {
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
	// drain writes the ring from the cursor: a gap notice if part of the
	// window was evicted, then every retained event past the cursor. It
	// reports done=true when the terminal event went out.
	drain := func() (done bool, err error) {
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
			if wrote && err == nil {
				err = flush()
			}
		}()
		if missed > 0 {
			t, data := marshalEvent("gap", map[string]any{"missed": missed, "source": "ring"})
			if err := send(0, t, data); err != nil {
				return false, err
			}
			wrote = true
		}
		for _, ev := range evs {
			if err := send(ev.seq, ev.typ, ev.data); err != nil {
				return false, err
			}
			wrote = true
			if ev.typ == "done" {
				return true, nil
			}
		}
		if synth != nil {
			t, data := marshalEvent("done", synth)
			if err := send(0, t, data); err != nil {
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
		if done, err := drain(); done || err != nil {
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
