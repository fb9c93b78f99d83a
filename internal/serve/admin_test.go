package serve

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vlasov6d/internal/sched"
	"vlasov6d/internal/store"
	"vlasov6d/internal/tenant"
)

// writeKeys writes a key file and returns its parsed registry.
func writeKeys(t *testing.T, path, doc string) *tenant.Registry {
	t.Helper()
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestHotReloadKeys is the rotation proof: a long job runs under the old
// key file, the file is rewritten and reloaded over the admin endpoint,
// and the swap is total — the rotated-out key 401s, the new key works,
// and the running job never notices.
func TestHotReloadKeys(t *testing.T) {
	storeDir, ckptDir := t.TempDir(), t.TempDir()
	keysPath := filepath.Join(t.TempDir(), "keys.json")
	reg := writeKeys(t, keysPath, `{"tenants": [
		{"name": "ops", "key": "ops-key", "admin": true},
		{"name": "alice", "key": "alice-key-1"}
	]}`)
	srv, ts := newTestServer(t, Config{
		Workers:         1,
		CheckpointDir:   ckptDir,
		CheckpointEvery: 20,
		StoreDir:        storeDir,
		Tenants:         reg,
		KeysPath:        keysPath,
	})
	defer srv.Close()

	code, _, body := authJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "alice-key-1",
		`{"scenario":"landau","name":"steady","until":30,"fixed_dt":0.001}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	pollStatusAuth(t, ts.URL, id, "alice-key-1", "running")

	// Rotate alice's key and drop nobody; reload over the admin surface.
	writeKeys(t, keysPath, `{"tenants": [
		{"name": "ops", "key": "ops-key", "admin": true},
		{"name": "alice", "key": "alice-key-2"}
	]}`)
	code, _, body = authJSON(t, http.MethodPost, ts.URL+"/v1/admin/reload", "ops-key", "")
	if code != http.StatusOK || body["reloaded"] != true {
		t.Fatalf("reload: %d %v", code, body)
	}

	// The swap is immediate: old key dead, new key live, job untouched.
	if code, _, _ = authJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "alice-key-1", ""); code != http.StatusUnauthorized {
		t.Fatalf("rotated-out key got %d, want 401", code)
	}
	st := pollStatusAuth(t, ts.URL, id, "alice-key-2", "running")
	if st["tenant"] != "alice" {
		t.Fatalf("job changed hands across reload: %v", st)
	}
	code, _, _ = authJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), "alice-key-2", "")
	if code != http.StatusAccepted {
		t.Fatalf("cancel with rotated key: %d", code)
	}
	pollStatusAuth(t, ts.URL, id, "alice-key-2", "cancelled")

	metrics := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"vlasovd_key_reloads_total 1",
		`vlasovd_admission_total{tenant="",outcome="401"}`,
		`vlasovd_admission_total{tenant="alice",outcome="accept"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	recs, err := store.ReadAuditLog(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	var sawReload bool
	for _, r := range recs {
		if r.Outcome == "reload" && r.Tenant == "ops" {
			sawReload = true
		}
	}
	if !sawReload {
		t.Fatalf("no reload audit record: %+v", recs)
	}
}

// TestAdminReloadGuards covers the refusal paths: a non-admin tenant is
// 403 (and audited), and a key file that fails validation is rejected
// wholesale — 422, the failure is counted, and the old registry keeps
// serving.
func TestAdminReloadGuards(t *testing.T) {
	storeDir := t.TempDir()
	keysPath := filepath.Join(t.TempDir(), "keys.json")
	reg := writeKeys(t, keysPath, `{"tenants": [
		{"name": "ops", "key": "ops-key", "admin": true},
		{"name": "alice", "key": "alice-key"}
	]}`)
	srv, ts := newTestServer(t, Config{
		Workers:  1,
		StoreDir: storeDir,
		Tenants:  reg,
		KeysPath: keysPath,
	})
	defer srv.Close()

	code, _, _ := authJSON(t, http.MethodPost, ts.URL+"/v1/admin/reload", "alice-key", "")
	if code != http.StatusForbidden {
		t.Fatalf("non-admin reload got %d, want 403", code)
	}

	// Corrupt the key file: duplicate keys fail validation.
	if err := os.WriteFile(keysPath, []byte(`{"tenants": [
		{"name": "a", "key": "same"}, {"name": "b", "key": "same"}
	]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	code, _, body := authJSON(t, http.MethodPost, ts.URL+"/v1/admin/reload", "ops-key", "")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid key file reload got %d %v, want 422", code, body)
	}
	// Wholesale rejection: the pre-reload keys still authenticate.
	if code, _, _ = authJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "alice-key", ""); code != http.StatusOK {
		t.Fatalf("old registry not live after failed reload: %d", code)
	}
	if _, err := srv.ReloadKeys(); err == nil {
		t.Fatal("ReloadKeys accepted an invalid file")
	}
	// A null entry is rejected the same way — not a nil dereference in the
	// signal loop that would take the daemon down with every running job.
	if err := os.WriteFile(keysPath, []byte(`{"tenants": [null]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ReloadKeys(); err == nil {
		t.Fatal("ReloadKeys accepted a null tenant entry")
	}
	if code, _, _ = authJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "alice-key", ""); code != http.StatusOK {
		t.Fatalf("old registry not live after null-entry reload: %d", code)
	}

	metrics := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"vlasovd_key_reload_failures_total 3",
		`vlasovd_admission_total{tenant="alice",outcome="403"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	recs, err := store.ReadAuditLog(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	var saw403 bool
	failed := 0
	for _, r := range recs {
		if r.Outcome == "403" && r.Tenant == "alice" {
			saw403 = true
		}
		if r.Outcome == "reload_failed" {
			failed++
		}
	}
	if !saw403 || failed != 3 {
		t.Fatalf("audit log records: 403=%v, %d reload_failed (want 3): %+v", saw403, failed, recs)
	}
}

// TestAdmissionAudit pins the audit trail's content: an accepted
// submission carries the job id and the canonical spec's hash, a bad
// bearer token lands as an anonymous 401.
func TestAdmissionAudit(t *testing.T) {
	storeDir := t.TempDir()
	reg, err := tenant.Parse(strings.NewReader(`{"tenants": [{"name": "alice", "key": "alice-key"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 1, StoreDir: storeDir, Tenants: reg})
	defer srv.Close()

	code, _, body := authJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "alice-key",
		`{"scenario":"landau","name":"audited","until":0.05,"fixed_dt":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	if code, _, _ = authJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "wrong-key", ""); code != http.StatusUnauthorized {
		t.Fatalf("bad key got %d, want 401", code)
	}
	pollStatusAuth(t, ts.URL, id, "alice-key", "done")

	recs, err := store.ReadAuditLog(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	var accept, unauthorized *store.AuditRecord
	for i := range recs {
		switch recs[i].Outcome {
		case "accept":
			accept = &recs[i]
		case "401":
			unauthorized = &recs[i]
		}
	}
	if accept == nil || accept.Tenant != "alice" || accept.JobID != id || len(accept.SpecHash) != 64 {
		t.Fatalf("accept audit record wrong: %+v", accept)
	}
	if unauthorized == nil || unauthorized.Tenant != "" || unauthorized.Reason == "" {
		t.Fatalf("401 audit record wrong: %+v", unauthorized)
	}
}

// fakeSnapshot drops a checkpoint-shaped file of the given size.
func fakeSnapshot(t *testing.T, dir string, clock float64, size int) string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("ckpt_%014.8f.v6d", clock))
	if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStorageQuotaEviction drives the enforcer directly over fabricated
// snapshot sets: eviction is oldest-clock-first across the tenant's
// jobs, a live job's newest snapshot is the untouchable floor, and a
// floor that alone exceeds the quota fails the triggering job — with the
// failure journaled.
func TestStorageQuotaEviction(t *testing.T) {
	storeDir, ckptDir := t.TempDir(), t.TempDir()
	srv, _ := newTestServer(t, Config{Workers: 1, StoreDir: storeDir, CheckpointDir: ckptDir})
	defer srv.Close()

	dirA := filepath.Join(ckptDir, "jobA")
	dirB := filepath.Join(ckptDir, "jobB")
	a1 := fakeSnapshot(t, dirA, 1, 1000)
	a2 := fakeSnapshot(t, dirA, 2, 1000)
	b3 := fakeSnapshot(t, dirB, 3, 1000)
	b4 := fakeSnapshot(t, dirB, 4, 1000)

	terminalA := &jobEntry{id: 101, tenant: "carol", ckptDir: dirA, ckptBytes: 2000, result: &sched.Result{}}
	liveB := &jobEntry{id: 102, tenant: "carol", ckptDir: dirB, ckptBytes: 2000}
	srv.mu.Lock()
	srv.jobs[101], srv.jobs[102] = terminalA, liveB
	srv.storage["carol"] = 4000
	srv.mu.Unlock()
	srv.store.Submitted(102, "carol", []byte(`{"scenario":"landau"}`), time.Now())

	// Quota 3000 over 4000 on disk: exactly the oldest snapshot goes.
	srv.enforceStorageQuota(liveB, &tenant.Tenant{Name: "carol", MaxStorageBytes: 3000})
	if _, err := os.Stat(a1); !os.IsNotExist(err) {
		t.Fatal("oldest snapshot survived eviction")
	}
	for _, p := range []string{a2, b3, b4} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("eviction overshot: %s gone", p)
		}
	}
	srv.mu.Lock()
	tracked, quotaErr := srv.storage["carol"], liveB.quotaErr
	srv.mu.Unlock()
	if tracked != 3000 || quotaErr != "" {
		t.Fatalf("after eviction: tracked=%d quotaErr=%q", tracked, quotaErr)
	}

	// Quota 500: everything evictable goes, the live job's newest
	// snapshot (the resume floor) stays, and the trigger fails.
	srv.enforceStorageQuota(liveB, &tenant.Tenant{Name: "carol", MaxStorageBytes: 500})
	if _, err := os.Stat(b4); err != nil {
		t.Fatal("the resume floor was evicted")
	}
	for _, p := range []string{a2, b3} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("evictable snapshot survived: %s", p)
		}
	}
	srv.mu.Lock()
	quotaErr = liveB.quotaErr
	srv.mu.Unlock()
	if !strings.Contains(quotaErr, "storage quota") {
		t.Fatalf("trigger not failed by quota: %q", quotaErr)
	}

	// The failure is durable: a reoplen of the journal shows job 102
	// terminal, not pending.
	srv.Close()
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, j := range st.Pending() {
		if j.ID == 102 {
			t.Fatal("quota-failed job still pending in the journal")
		}
	}
}

// TestStorageQuotaFailsJob is the end-to-end face of the quota: a tenant
// whose cap is smaller than a single snapshot has its job failed on the
// first checkpoint write, with the explanatory error in the status
// document and the failure journaled.
func TestStorageQuotaFailsJob(t *testing.T) {
	storeDir, ckptDir := t.TempDir(), t.TempDir()
	reg, err := tenant.Parse(strings.NewReader(
		`{"tenants": [{"name": "dave", "key": "dave-key", "max_storage_bytes": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{
		Workers:         1,
		CheckpointDir:   ckptDir,
		CheckpointEvery: 10,
		StoreDir:        storeDir,
		Tenants:         reg,
		KeysPath:        filepath.Join(t.TempDir(), "unused.json"),
	})
	defer srv.Close()

	code, _, body := authJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "dave-key",
		`{"scenario":"landau","name":"hog","until":30,"fixed_dt":0.001}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	st := pollStatusAuth(t, ts.URL, id, "dave-key", "failed")
	if msg, _ := st["error"].(string); !strings.Contains(msg, "storage quota") {
		t.Fatalf("failure does not explain the quota: %v", st)
	}
	metrics := scrapeMetrics(t, ts.URL)
	if !strings.Contains(metrics, `vlasovd_tenant_storage_bytes{tenant="dave"}`) {
		t.Fatalf("no storage gauge for dave:\n%s", metrics)
	}

	srv.Close()
	jst, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer jst.Close()
	for _, j := range jst.Pending() {
		if j.ID == id {
			t.Fatal("quota-failed job still pending in the journal")
		}
	}
}

// TestStorageQuotaWithoutStore: the quota is a tenant setting, not a
// journal one. A daemon with tenants and a checkpoint directory but no
// store still measures each snapshot: a job whose second snapshot takes the
// tenant past a quota of one and a half snapshots has the older one
// evicted after every write, finishes done, and the gauge reads the one
// file it leaves.
func TestStorageQuotaWithoutStore(t *testing.T) {
	const nx, nv = 16, 32
	quota := nx * nv * 8 * 3 / 2 // 1.5 × the distribution function's bytes
	reg, err := tenant.Parse(strings.NewReader(fmt.Sprintf(
		`{"tenants": [{"name": "erin", "key": "erin-key", "max_storage_bytes": %d}]}`, quota)))
	if err != nil {
		t.Fatal(err)
	}
	ckptDir := t.TempDir()
	srv, ts := newTestServer(t, Config{Workers: 1, CheckpointDir: ckptDir, CheckpointEvery: 2, Tenants: reg})
	defer srv.Close()

	code, _, body := authJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "erin-key", fmt.Sprintf(
		`{"scenario":"landau","name":"tidy","params":{"nx":%d,"nv":%d},"until":0.1,"fixed_dt":0.01}`, nx, nv))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	pollStatusAuth(t, ts.URL, int(body["id"].(float64)), "erin-key", "done")
	files, err := filepath.Glob(filepath.Join(ckptDir, "erin", "tidy", "ckpt_*.v6d"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("%d snapshots left under a quota of 1.5 snapshots, want the newest alone: %v", len(files), files)
	}
	st, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > int64(quota) {
		t.Fatalf("one snapshot is %d bytes, over the %d-byte quota: the test's sizes are wrong", st.Size(), quota)
	}
	gauge := fmt.Sprintf("vlasovd_tenant_storage_bytes{tenant=\"erin\"} %d\n", st.Size())
	if metrics := scrapeMetrics(t, ts.URL); !strings.Contains(metrics, gauge) {
		t.Fatalf("want %q in:\n%s", gauge, metrics)
	}
}

// TestRecoveryAfterCompactionCrash is the crash-consistency proof for
// online compaction at the serve layer: a daemon with aggressive
// compaction thresholds churns jobs (forcing live rewrites), dies the
// fast way with a stale compaction temp file left behind — the on-disk
// shape a kill -9 mid-rename leaves — and the next daemon over the same
// directories recovers the unfinished job under its original id.
func TestRecoveryAfterCompactionCrash(t *testing.T) {
	storeDir, ckptDir := t.TempDir(), t.TempDir()
	cfg := Config{
		Workers:               1,
		CheckpointDir:         ckptDir,
		CheckpointEvery:       20,
		StoreDir:              storeDir,
		JournalCompactRecords: 8, // every few records: compaction runs DURING the churn
	}
	srv, ts := newTestServer(t, cfg)

	// Churn short jobs to terminal: their journal records cross the
	// 8-record threshold repeatedly, so online compaction rewrites the
	// live journal several times during this loop.
	for i := 0; i < 6; i++ {
		code, body := postJSON(t, ts.URL+"/v1/jobs",
			fmt.Sprintf(`{"scenario":"landau","name":"churn-%d","until":0.02,"fixed_dt":0.01}`, i))
		if code != http.StatusAccepted {
			t.Fatalf("churn submit: %d %v", code, body)
		}
		pollStatus(t, ts.URL, int(body["id"].(float64)), "done")
	}
	code, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"scenario":"landau","name":"longhaul","until":30,"fixed_dt":0.001}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	longID := int(body["id"].(float64))
	pollStatus(t, ts.URL, longID, "running")

	// Die fast, then plant a poisoned journal.v6dj.tmp: what a SIGKILL
	// between compaction's write and rename leaves. It must be ignored
	// and removed, never replayed.
	ts.Close()
	srv.Close()
	tmp := filepath.Join(storeDir, "journal.v6dj.tmp")
	if err := os.WriteFile(tmp, []byte("half-written compaction output"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestServer(t, cfg)
	defer srv2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale compaction temp file survived reopen")
	}
	if !strings.Contains(scrapeMetrics(t, ts2.URL), "vlasovd_jobs_recovered_total 1") {
		t.Fatal("long job not recovered after compaction crash")
	}
	st := pollStatus(t, ts2.URL, longID, "running", "queued")
	if st["name"] != "longhaul" {
		t.Fatalf("recovered job lost its identity: %v", st)
	}
	code, _, _ = authJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts2.URL, longID), "", "")
	if code != http.StatusAccepted {
		t.Fatalf("cancel recovered job: %d", code)
	}
	pollStatus(t, ts2.URL, longID, "cancelled")
}
