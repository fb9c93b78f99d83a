// The /metrics endpoint: Prometheus text exposition of the server's counters,
// gauges and latency histograms.
package serve

import (
	"cmp"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strings"
	"time"
)

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
	queued, storage, admission := maps.Clone(s.queued), maps.Clone(s.storage), maps.Clone(s.admission)
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
	var held map[string]int
	if b := s.stream.Budget(); b != nil {
		gauge("vlasovd_budget_cores_total", "Cores the budget divides.", b.Total())
		gauge("vlasovd_budget_cores_in_use", "Cores currently claimed by live jobs.", b.Held())
		gauge("vlasovd_budget_jobs_live", "Live core leases.", b.Live())
		held = b.HeldByTenant()
	}
	// Per-tenant gauges: every registered tenant is emitted (zeros
	// included, so dashboards see a stable series set), plus any tenant
	// the journal resurrected that the current key file no longer lists.
	names := make(map[string]bool)
	add := func(name string) {
		if name != "" {
			names[name] = true
		}
	}
	if reg := s.registry(); reg != nil {
		// The LIVE registry drives the series set: a tenant added by a
		// reload appears on the next scrape, zeros included.
		for _, tn := range reg.Tenants() {
			add(tn.Name)
		}
	}
	for name := range storage {
		add(name)
	}
	for name := range held {
		add(name)
	}
	for name := range queued {
		add(name)
	}
	if len(names) > 0 {
		ordered := slices.Sorted(maps.Keys(names))
		tenantGauge := func(name, help string, value func(tenant string) int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			for _, tn := range ordered {
				fmt.Fprintf(w, "%s{tenant=\"%s\"} %d\n", name, escapeLabel(tn), value(tn))
			}
		}
		tenantGauge("vlasovd_tenant_cores_in_use", "Cores currently claimed by the tenant's jobs.",
			func(tn string) int64 { return int64(held[tn]) })
		tenantGauge("vlasovd_tenant_queue_depth", "The tenant's jobs queued, not yet dispatched.",
			func(tn string) int64 { return int64(queued[tn]) })
		tenantGauge("vlasovd_tenant_storage_bytes", "Checkpoint bytes on disk tracked against the tenant's storage quota.",
			func(tn string) int64 { return storage[tn] })
	}
	if len(admission) > 0 {
		// Admission outcomes, one series per (tenant, outcome) observed.
		// tenant="" is a request that never authenticated (the 401s).
		keys := slices.SortedFunc(maps.Keys(admission), func(a, b admKey) int {
			return cmp.Or(strings.Compare(a.tenant, b.tenant), strings.Compare(a.outcome, b.outcome))
		})
		fmt.Fprintf(w, "# HELP vlasovd_admission_total Admission decisions by tenant and outcome (accept, 401, 403, 429, 503).\n")
		fmt.Fprintf(w, "# TYPE vlasovd_admission_total counter\n")
		for _, k := range keys {
			fmt.Fprintf(w, "vlasovd_admission_total{tenant=\"%s\",outcome=\"%s\"} %d\n",
				escapeLabel(k.tenant), escapeLabel(k.outcome), admission[k])
		}
	}
}
