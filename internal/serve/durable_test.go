package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vlasov6d/internal/runner"
	"vlasov6d/internal/sched"
	"vlasov6d/internal/store"
	"vlasov6d/internal/tenant"
)

// authJSON performs a request with a bearer token and decodes the JSON
// response, returning the headers as well (Retry-After assertions).
func authJSON(t *testing.T, method, url, token, body string) (int, http.Header, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	raw, _ := io.ReadAll(resp.Body)
	if len(bytes.TrimSpace(raw)) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decode %s %s: %v (%s)", method, url, err, raw)
		}
	}
	return resp.StatusCode, resp.Header, out
}

// pollStatusAuth is pollStatus with a bearer token.
func pollStatusAuth(t *testing.T, base string, id int, token string, want ...string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, _, body := authJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d", base, id), token, "")
		if code != http.StatusOK {
			t.Fatalf("job %d status code %d: %v", id, code, body)
		}
		st, _ := body["status"].(string)
		for _, w := range want {
			if st == w {
				return body
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %d never reached %v", id, want)
	return nil
}

// scrapeMetrics fetches /metrics as raw text.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type %q is not the Prometheus text exposition", ct)
	}
	return string(raw)
}

// TestRestartRecovery is the durability proof: a job is killed mid-run with
// the FAST shutdown (no Drain — the moral equivalent of a SIGKILL for the
// control plane's state), a new server is built over the same store and
// checkpoint directories, and the job re-queues under its original id,
// resumes from the newest snapshot on disk, and finishes at the clock an
// uninterrupted run would have reached.
func TestRestartRecovery(t *testing.T) {
	storeDir, ckptDir := t.TempDir(), t.TempDir()
	cfg := Config{
		Workers:         1,
		CheckpointDir:   ckptDir,
		CheckpointEvery: 20,
		StoreDir:        storeDir,
	}
	srv, ts := newTestServer(t, cfg)

	// 1000 fixed-dt steps to until=10; a checkpoint every 20 steps. The test
	// needs the job alive at the kill, 980 steps after its first checkpoint:
	// the grid is sized for that (16× the catalog default, the better part
	// of a second of stepping), not the default job that a fast solver can
	// finish inside the polling loop below.
	const until, dt = 10.0, 0.01
	code, body := postJSON(t, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"scenario":"landau","name":"phoenix","params":{"nx":64,"nv":256},"until":%g,"fixed_dt":%g}`, until, dt))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))

	// Wait for the first durable snapshot, then kill the server mid-run.
	jobDir := sched.JobCheckpointDir(ckptDir, "", "phoenix")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if paths, err := runner.ListCheckpoints(jobDir); err == nil && len(paths) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(time.Millisecond)
	}
	if _, st := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id)); st["status"] != "running" {
		t.Fatalf("job is %v at the kill, want it still running: it outran the test — give it a larger grid", st["status"])
	}
	ts.Close()
	srv.Close()

	// The newest snapshot's clock is where the resumed run must pick up.
	paths, err := runner.ListCheckpoints(jobDir)
	if err != nil || len(paths) == 0 {
		t.Fatalf("checkpoints after kill: %v (%v)", paths, err)
	}
	var ckptClock float64
	fmt.Sscanf(filepath.Base(paths[len(paths)-1]), "ckpt_%f.v6d", &ckptClock)
	if ckptClock <= 0 || ckptClock >= until {
		t.Fatalf("kill landed outside the run: newest checkpoint clock %g", ckptClock)
	}

	// Rebuild over the same directories: the journal replays, the job
	// re-queues under its original id.
	srv2, ts2 := newTestServer(t, cfg)
	defer srv2.Close()
	if m := scrapeMetrics(t, ts2.URL); !strings.Contains(m, "vlasovd_jobs_recovered_total 1") {
		t.Fatalf("metrics after restart missing recovered counter:\n%s", m)
	}
	final := pollStatus(t, ts2.URL, id, "done", "failed")
	if final["status"] != "done" {
		t.Fatalf("recovered job: %v", final)
	}
	rep, ok := final["report"].(map[string]any)
	if !ok {
		t.Fatalf("recovered job finished without a report: %v", final)
	}
	if clock := rep["clock"].(float64); clock < until-1e-6 {
		t.Fatalf("recovered run stopped at clock %v, want the uninterrupted target %v", clock, until)
	}
	// Resumption, not re-execution: the second life stepped only the
	// remainder past the snapshot, not the full run.
	steps := rep["steps"].(float64)
	remainder := (until-ckptClock)/dt + 2
	if steps > remainder {
		t.Fatalf("recovered run stepped %v times; resume from clock %g needed at most %g",
			steps, ckptClock, remainder)
	}
	if steps >= until/dt {
		t.Fatalf("recovered run stepped %v times — it re-ran from scratch", steps)
	}

	// A third open finds nothing to recover: the journal holds the done
	// record (and compaction drops it on open).
	srv3, ts3 := newTestServer(t, cfg)
	defer srv3.Close()
	if m := scrapeMetrics(t, ts3.URL); !strings.Contains(m, "vlasovd_jobs_recovered_total 0") {
		t.Fatalf("finished job recovered again:\n%s", m)
	}
}

// TestUpgradeOverOldJournal boots over a journal an older daemon wrote:
// its pending spec carries the retired min_workers/max_workers bounds and
// it holds the retired checkpoint records. The job still recovers under its
// id and finishes, boot compaction drops the checkpoint frames, and a new
// submission naming a retired field is a bad request.
func TestUpgradeOverOldJournal(t *testing.T) {
	storeDir := t.TempDir()
	var journal []byte
	for _, rec := range []string{
		`{"type":"submitted","id":7,"spec":{"scenario":"landau","name":"veteran","params":{"nv":32,"nx":16},"until":0.1,"min_workers":2,"max_workers":4,"fixed_dt":0.01},"unix_nano":1700000000000000000,"seq":4096}`,
		`{"type":"started","id":7,"attempt":1}`,
		`{"type":"checkpoint","id":7,"clock":0.02}`,
		`{"type":"checkpoint","id":7,"clock":0.04}`,
	} {
		journal = binary.LittleEndian.AppendUint32(journal, uint32(len(rec)))
		journal = binary.LittleEndian.AppendUint32(journal, crc32.ChecksumIEEE([]byte(rec)))
		journal = append(journal, rec...)
	}
	journalPath := filepath.Join(storeDir, "journal.v6dj")
	if err := os.WriteFile(journalPath, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{Workers: 1, CheckpointDir: t.TempDir(), StoreDir: storeDir})
	defer srv.Close()
	raw, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"checkpoint"`)) {
		t.Fatalf("boot compaction kept a checkpoint record:\n%s", raw)
	}
	if st := pollStatus(t, ts.URL, 7, "done", "failed"); st["status"] != "done" || st["name"] != "veteran" {
		t.Fatalf("recovered job: %v", st)
	}

	code, body := postJSON(t, ts.URL+"/v1/jobs", `{"scenario":"landau","min_workers":2}`)
	if msg, _ := body["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "min_workers") {
		t.Fatalf("spec with min_workers: %d %v, want 400 naming the field", code, body)
	}
}

// TestUserCancelSurvivesRestart: a DELETE is journaled terminal at cancel
// time, so the restarted server does NOT resurrect the job — the one
// cancellation that must not be undone by recovery.
func TestUserCancelSurvivesRestart(t *testing.T) {
	storeDir, ckptDir := t.TempDir(), t.TempDir()
	cfg := Config{Workers: 1, CheckpointDir: ckptDir, CheckpointEvery: 10, StoreDir: storeDir}
	srv, ts := newTestServer(t, cfg)
	code, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"scenario":"landau","name":"doomed","until":1000,"fixed_dt":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	pollStatus(t, ts.URL, id, "running")
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	pollStatus(t, ts.URL, id, "cancelled")
	ts.Close()
	srv.Close()

	srv2, ts2 := newTestServer(t, cfg)
	defer srv2.Close()
	if m := scrapeMetrics(t, ts2.URL); !strings.Contains(m, "vlasovd_jobs_recovered_total 0") {
		t.Fatalf("user-cancelled job resurrected:\n%s", m)
	}
}

func TestTenantAuthAndQuotas(t *testing.T) {
	reg, err := tenant.Parse(strings.NewReader(`{
	  "tenants": [
	    {"name": "alice", "key": "alice-key", "max_queued": 1},
	    {"name": "bob", "key": "bob-key", "rate_per_sec": 0.001, "burst": 2}
	  ]}`))
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 1, Tenants: reg})
	defer srv.Close()
	long := `{"scenario":"landau","name":"%s","until":1000,"fixed_dt":0.01}`

	// No token and an unknown token are both 401 with a challenge.
	code, hdr, _ := authJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "", "")
	if code != http.StatusUnauthorized || !strings.Contains(hdr.Get("WWW-Authenticate"), "Bearer") {
		t.Fatalf("anonymous list: %d %q", code, hdr.Get("WWW-Authenticate"))
	}
	if code, _, _ := authJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "stolen", fmt.Sprintf(long, "x")); code != http.StatusUnauthorized {
		t.Fatalf("unknown key submit: %d", code)
	}
	// /healthz and /metrics stay open — the unauthenticated probe surface.
	if code, _ := getJSON(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz behind auth: %d", code)
	}
	scrapeMetrics(t, ts.URL)

	// Alice fills the single worker, then her queue quota (1), then hits it.
	code, _, body := authJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "alice-key", fmt.Sprintf(long, "a1"))
	if code != http.StatusAccepted {
		t.Fatalf("alice submit 1: %d %v", code, body)
	}
	a1 := int(body["id"].(float64))
	pollStatusAuth(t, ts.URL, a1, "alice-key", "running")
	code, _, body = authJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "alice-key", fmt.Sprintf(long, "a2"))
	if code != http.StatusAccepted {
		t.Fatalf("alice submit 2: %d %v", code, body)
	}
	a2 := int(body["id"].(float64))
	code, hdr, body = authJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "alice-key", fmt.Sprintf(long, "a3"))
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("queue quota: %d (Retry-After %q) %v", code, hdr.Get("Retry-After"), body)
	}

	// Bob's bucket holds 2 tokens and refills at a glacial rate: the third
	// request inside the window is rate-limited with a Retry-After.
	for i := 0; i < 2; i++ {
		if code, _, body := authJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "bob-key",
			fmt.Sprintf(long, fmt.Sprintf("b%d", i))); code != http.StatusAccepted {
			t.Fatalf("bob submit %d: %d %v", i, code, body)
		}
	}
	code, hdr, _ = authJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "bob-key", fmt.Sprintf(long, "b2"))
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("rate limit: %d (Retry-After %q)", code, hdr.Get("Retry-After"))
	}

	// Tenant scoping: bob cannot see or touch alice's job, and his listing
	// holds only his own.
	if code, _, _ := authJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, a1), "bob-key", ""); code != http.StatusForbidden {
		t.Fatalf("cross-tenant get: %d", code)
	}
	if code, _, _ := authJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, a1), "bob-key", ""); code != http.StatusForbidden {
		t.Fatalf("cross-tenant cancel: %d", code)
	}
	code, _, list := authJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "bob-key", "")
	if code != http.StatusOK {
		t.Fatalf("bob list: %d", code)
	}
	for _, j := range list["jobs"].([]any) {
		if j.(map[string]any)["tenant"] != "bob" {
			t.Fatalf("bob's listing leaked another tenant's job: %v", j)
		}
	}
	if n := len(list["jobs"].([]any)); n != 2 {
		t.Fatalf("bob sees %d jobs, submitted 2", n)
	}

	// The per-tenant gauges are labelled Prometheus series.
	m := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`vlasovd_tenant_queue_depth{tenant="alice"} 1`,
		`# TYPE vlasovd_tenant_cores_in_use gauge`,
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q:\n%s", want, m)
		}
	}

	// Draining answers 503 with a Retry-After so clients back off.
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		srv.Drain(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, hdr, _ = authJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "alice-key", fmt.Sprintf(long, "late"))
		if code == http.StatusServiceUnavailable {
			if hdr.Get("Retry-After") == "" {
				t.Fatal("draining 503 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never refused intake (last code %d)", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = a2
}

// TestPlainMetricsStillGreppable pins the compatibility contract: the
// Prometheus exposition's sample lines keep the exact "name value" shape
// the pre-tenancy endpoint served, so existing scrapes keep matching.
func TestPlainMetricsStillGreppable(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Budget: 2})
	defer srv.Close()
	m := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"\nvlasovd_jobs_submitted_total 0\n",
		"\nvlasovd_queue_depth 0\n",
		"\nvlasovd_budget_cores_total 2\n",
		"# TYPE vlasovd_jobs_submitted_total counter",
		"# HELP vlasovd_queue_depth ",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestCloseClosesIndex: Close finalises all three logs, the artifact index
// included — a Put after it is refused, while reads of what the index
// already holds keep answering from memory.
func TestCloseClosesIndex(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, StoreDir: t.TempDir()})
	code, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"scenario":"landau","name":"kept","until":0.02,"fixed_dt":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	pollStatus(t, ts.URL, id, "done")
	ts.Close()
	srv.Close()

	err := srv.index.Put(store.IndexEntry{ID: id + 1, Name: "late", Status: "done"})
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("index.Put after Close: %v, want a closed error", err)
	}
	if e, ok := srv.index.Get(id); !ok || e.Name != "kept" || e.Status != "done" {
		t.Fatalf("index.Get after Close: %+v ok=%v", e, ok)
	}
}

// TestSubmitFailsClosedOnJournalError: a 202 promises the job survives a
// restart, so a submission the journal refuses gets a 503 with Retry-After
// and leaves nothing behind — no job, no queued stream work, no counter.
func TestSubmitFailsClosedOnJournalError(t *testing.T) {
	storeDir := t.TempDir()
	srv, ts := newTestServer(t, Config{Workers: 1, StoreDir: storeDir})
	defer srv.Close()
	srv.store.Close() // every journal append now fails

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"scenario":"landau","name":"lost","until":0.02,"fixed_dt":0.01}`))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submit with a failing journal: %d, Retry-After %q, body %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), blob)
	}
	code, list := getJSON(t, ts.URL+"/v1/jobs")
	if jobs, _ := list["jobs"].([]any); code != http.StatusOK || len(jobs) != 0 {
		t.Fatalf("job list after the refusal: %d %v", code, list)
	}
	if v := metricValue(t, ts.URL, "vlasovd_jobs_submitted_total"); v != 0 {
		t.Fatalf("vlasovd_jobs_submitted_total = %v, want 0", v)
	}
	if n := srv.stream.Submitted(); n != 0 {
		t.Fatalf("stream holds %d submissions, want 0", n)
	}
	srv.mu.Lock()
	residue := len(srv.jobs) + len(srv.byStream) + srv.queued[""]
	srv.mu.Unlock()
	if residue != 0 {
		t.Fatalf("refused submission left %d registry entries", residue)
	}
	recs, err := store.ReadAuditLog(storeDir)
	if err != nil || len(recs) != 1 || recs[0].Outcome != "503" || recs[0].SpecHash == "" {
		t.Fatalf("audit after the refusal: %+v, %v", recs, err)
	}
}

// TestRejectedSubmissionNotReplayed: the journal is written before the
// stream sees a job, so a submission the stream then turns down (here a
// live duplicate name, 409) is retracted — a restart recovers the job
// that was accepted and nothing else.
func TestRejectedSubmissionNotReplayed(t *testing.T) {
	cfg := Config{Workers: 1, CheckpointDir: t.TempDir(), CheckpointEvery: 10, StoreDir: t.TempDir()}
	srv, ts := newTestServer(t, cfg)
	const spec = `{"scenario":"landau","name":"twice","until":1000,"fixed_dt":0.01}`
	code, body := postJSON(t, ts.URL+"/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	pollStatus(t, ts.URL, int(body["id"].(float64)), "running")
	if code, body := postJSON(t, ts.URL+"/v1/jobs", spec); code != http.StatusConflict {
		t.Fatalf("duplicate submit: %d %v", code, body)
	}
	ts.Close()
	srv.Close()

	srv2, ts2 := newTestServer(t, cfg)
	defer srv2.Close()
	if got := metricValue(t, ts2.URL, "vlasovd_jobs_recovered_total"); got != 1 {
		t.Fatalf("recovered %v jobs, want 1 (the 409'd duplicate must stay refused)", got)
	}
}
