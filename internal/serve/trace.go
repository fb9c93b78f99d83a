// The trace and profiling surface: per-job lifecycle timelines, the
// archived-job listing, and the admin-gated pprof endpoints.
//
// A job's trace is the per-job face of the paper's §7 time accounting:
// where TimeToSolution predicts how a run's wall clock divides across
// phases, the trace records how THIS job's wall clock actually divided —
// admission, queue wait, each dispatch attempt, each running segment,
// each checkpoint write, recovery after a restart. The trace follows the
// job through its whole afterlife: served from the live entry while the
// job is retained, and from the artifact index (where finish
// snapshots it at terminal time) once the bounded history evicts it.
package serve

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strings"

	"vlasov6d/internal/obs"
	"vlasov6d/internal/tenant"
)

// handleTrace serves GET /v1/jobs/{id}/trace: the job's span timeline,
// tenant-scoped like every other per-job route. A live job shows open
// spans (end_unix_nano absent, "open": true); an evicted job serves the
// terminal snapshot from the artifact index with "archived": true.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	e, ie, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if ie != nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"id":            ie.ID,
			"name":          ie.Name,
			"archived":      true,
			"spans":         spanDocs(ie.Trace),
			"dropped_spans": ie.TraceDropped,
		})
		return
	}
	spans, dropped := e.trace.Snapshot()
	s.mu.Lock()
	id := e.id
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"id":            id,
		"spans":         spanDocs(spans),
		"dropped_spans": dropped,
	})
}

// spanDocs renders spans for the wire: the JSON shape plus a derived
// duration and an explicit "open" marker, so clients don't have to infer
// in-flight phases from a zero end timestamp.
func spanDocs(spans []obs.Span) []map[string]any {
	out := make([]map[string]any, 0, len(spans))
	for _, sp := range spans {
		doc := map[string]any{
			"name":            sp.Name,
			"start_unix_nano": sp.StartUnixNano,
		}
		if sp.EndUnixNano == 0 {
			doc["open"] = true
		} else {
			doc["end_unix_nano"] = sp.EndUnixNano
			doc["duration_seconds"] = sp.DurationSeconds()
		}
		if len(sp.Attrs) > 0 {
			doc["attrs"] = sp.Attrs
		}
		out = append(out, doc)
	}
	return out
}

// handleListArchived serves GET /v1/jobs?archived=1: the tenant's finished
// jobs from the durable artifact index — everything the daemon ever
// completed under this store, including jobs evicted from live history and
// jobs finished by previous lives of the process.
func (s *Server) handleListArchived(w http.ResponseWriter, r *http.Request) {
	if s.index == nil {
		writeErr(w, http.StatusNotFound,
			fmt.Errorf("serve: no artifact index (daemon runs without a store directory)"))
		return
	}
	tn, authed := tenant.FromContext(r.Context())
	out := make([]map[string]any, 0)
	for _, ie := range s.index.Entries() {
		if authed && ie.Tenant != tn.Name {
			continue
		}
		ie := ie
		out = append(out, statusBodyIndex(&ie))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out, "archived": true})
}

// handlePprof exposes net/http/pprof under /v1/admin/pprof/, gated on the
// authenticated tenant's admin capability — the same gate as the key
// reload: profiles leak process internals no ordinary tenant should see.
// Open mode (no tenancy) has no admin surface, so the routes 404 there;
// run a tenancy-enabled daemon to profile it.
func (s *Server) handlePprof(w http.ResponseWriter, r *http.Request) {
	tn, authed := tenant.FromContext(r.Context())
	if !authed {
		writeErr(w, http.StatusNotFound, fmt.Errorf("serve: no tenancy configured"))
		return
	}
	if !tn.Admin {
		s.recordAdmission(tn.Name, "403", "admin capability required for /v1/admin/pprof", "", 0)
		writeErr(w, http.StatusForbidden, fmt.Errorf("serve: tenant %q is not an admin", tn.Name))
		return
	}
	suffix := strings.TrimPrefix(r.URL.Path, "/v1/admin/pprof/")
	switch suffix {
	case "cmdline":
		pprof.Cmdline(w, r)
	case "profile":
		pprof.Profile(w, r)
	case "symbol":
		pprof.Symbol(w, r)
	case "trace":
		pprof.Trace(w, r)
	default:
		// Index serves the listing and every named runtime profile (heap,
		// goroutine, block, …), keyed off the URL path — it expects the
		// /debug/pprof/ prefix, so hand it a shallow request clone with the
		// path rewritten rather than mutating the caller's request.
		r2 := new(http.Request)
		*r2 = *r
		r2.URL = new(url.URL)
		*r2.URL = *r.URL
		r2.URL.Path = "/debug/pprof/" + suffix
		pprof.Index(w, r2)
	}
}
