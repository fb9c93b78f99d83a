package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vlasov6d/internal/catalog"
	"vlasov6d/internal/store"
	"vlasov6d/internal/tenant"
)

// TestShortJobLeavesNoEventsRecordAndNoDirectory is the service job the
// benchmark runs, on a durable, checkpointing, multi-tenant server: its
// events number from 1 inside the block its submitted record carried (no
// events record is ever journaled for it), and a run that never reaches the
// checkpoint cadence leaves no directory behind.
func TestShortJobLeavesNoEventsRecordAndNoDirectory(t *testing.T) {
	reg, err := tenant.Parse(strings.NewReader(`{"tenants": [{"name": "alice", "key": "alice-key"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	storeDir, ckptDir := t.TempDir(), t.TempDir()
	srv, ts := newTestServer(t, Config{Workers: 1, Tenants: reg, StoreDir: storeDir,
		CheckpointDir: ckptDir, CheckpointEvery: 10})
	defer srv.Close()

	code, _, body := authJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "alice-key",
		`{"scenario":"landau","name":"brief","params":{"nx":32,"nv":64},"max_steps":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))

	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d/diagnostics", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer alice-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ids []int64
	var last string
	readSSE(resp.Body, func(ev sseEvt) bool {
		ids = append(ids, ev.id)
		last = ev.typ
		return ev.typ != "done"
	})
	if last != "done" || len(ids) < 3 {
		t.Fatalf("stream ended on %q after ids %v", last, ids)
	}
	for i, got := range ids {
		if got != int64(i+1) {
			t.Fatalf("event ids %v, want 1..%d", ids, len(ids))
		}
	}

	// The terminal record is synced before the done event is published, so
	// the file is complete by now.
	raw, err := os.ReadFile(filepath.Join(storeDir, "journal.v6dj"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"type":"events"`)) {
		t.Fatalf("journal holds an events record for a %d-event job:\n%q", len(ids), raw)
	}
	for _, want := range []string{
		fmt.Sprintf(`,"seq":%d}`, store.EventSeqBlock), `"type":"started"`, `"type":"terminal"`,
	} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("journal lacks %s:\n%q", want, raw)
		}
	}

	if entries, err := os.ReadDir(ckptDir); err != nil || len(entries) != 0 {
		t.Fatalf("checkpoint root after a job that wrote no snapshot: %v (%v), want nothing", entries, err)
	}
	code, _, body = authJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d/checkpoints", ts.URL, id), "alice-key", "")
	if list, _ := body["checkpoints"].([]any); code != http.StatusOK || len(list) != 0 {
		t.Fatalf("checkpoints listing: %d %v, want 200 and none", code, body)
	}
}

// TestRecoveredJobNumbersPastItsSubmittedBlock: a daemon killed between a
// job's 202 and its first event leaves only the submitted record. The next
// life numbers the job's events from the end of the block that record
// carried — never from 1, which the dead daemon might have published — and
// no client is told its cursor was reset.
func TestRecoveredJobNumbersPastItsSubmittedBlock(t *testing.T) {
	storeDir := t.TempDir()
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := catalog.JobSpec{Scenario: "landau", Name: "orphan", MaxSteps: 2}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	id := st.NextID()
	if err := st.Submitted(id, "", spec, time.Now()); err != nil {
		t.Fatal(err)
	}
	st.Close()

	srv, ts := newTestServer(t, Config{Workers: 1, StoreDir: storeDir})
	defer srv.Close()
	resp := openSSE(t, ts.URL, id, 0)
	defer resp.Body.Close()
	var first int64
	var last string
	readSSE(resp.Body, func(ev sseEvt) bool {
		if ev.typ == "gap" && ev.data["source"] == "reset" {
			t.Errorf("recovered job's numbering was reset: %v", ev.data)
		}
		if first == 0 {
			first = ev.id
		}
		last = ev.typ
		return ev.typ != "done"
	})
	if first != store.EventSeqBlock+1 || last != "done" {
		t.Fatalf("first event id %d (want %d), stream ended on %q", first, store.EventSeqBlock+1, last)
	}
}

// TestStoreErrorsCountedNotFatal: once a job is accepted, a journal, index
// or audit append that fails is counted on /metrics and the job carries on.
// Only a new submission fails closed.
func TestStoreErrorsCountedNotFatal(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, StoreDir: t.TempDir()})
	defer srv.Close()
	submit := func(spec string) int {
		t.Helper()
		code, body := postJSON(t, ts.URL+"/v1/jobs", spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %v", code, body)
		}
		return int(body["id"].(float64))
	}
	errs := func(op string) float64 {
		return metricValue(t, ts.URL, fmt.Sprintf(`vlasovd_store_errors_total{op="%s"}`, op))
	}
	// The blocker holds the one worker, so the short job is still queued —
	// accepted, not yet started — when the store goes away under the server.
	blocker := submit(`{"scenario":"landau","name":"blocker","until":1000,"fixed_dt":0.01}`)
	pollStatus(t, ts.URL, blocker, "running")
	short := submit(`{"scenario":"landau","name":"short","max_steps":2}`)
	for _, op := range storeOps {
		if n := errs(op); n != 0 {
			t.Fatalf("%s errors = %v on a healthy store", op, n)
		}
	}
	srv.store.Close()
	srv.index.Close()
	srv.audit.Close()

	if code, _, body := authJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, blocker), "", ""); code != http.StatusAccepted {
		t.Fatalf("cancel with a closed journal: %d %v", code, body)
	}
	if st := pollStatus(t, ts.URL, short, "done", "failed", "cancelled"); st["status"] != "done" {
		t.Fatalf("short job ended %v", st)
	}
	pollStatus(t, ts.URL, blocker, "cancelled")
	if n := errs("started"); n != 1 {
		t.Fatalf("started errors = %v, want 1 (the short job's dispatch)", n)
	}
	if n := errs("terminal"); n != 2 {
		t.Fatalf("terminal errors = %v, want 2 (the cancel and the short job's done)", n)
	}
	// The index append runs after the result is visible: wait for both.
	deadline := time.Now().Add(10 * time.Second)
	for errs("index") != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("index errors = %v, want 2", errs("index"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, body := postJSON(t, ts.URL+"/v1/jobs", `{"scenario":"landau","name":"late","max_steps":2}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit with a closed journal: %d %v, want 503", code, body)
	}
	if n := errs("audit"); n < 1 {
		t.Fatalf("audit errors = %v after a refused submission, want ≥ 1", n)
	}
}
