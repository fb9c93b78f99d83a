package serve

// Tests for the single job table: serve answers status, cancellation and
// checkpoint questions from its own entries (the stream keeps live jobs
// only), and checkpoint keys are scoped by tenant.

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"vlasov6d/internal/catalog"
	"vlasov6d/internal/runner"
	"vlasov6d/internal/sched"
	"vlasov6d/internal/tenant"
)

// TestTenantsSharingAJobNameAreIsolated pins the tenant-key fix: the
// checkpoint key is (tenant, name), so two tenants using one job name
// neither 409 each other while live nor resume from each other's snapshots.
func TestTenantsSharingAJobNameAreIsolated(t *testing.T) {
	reg, err := tenant.Parse(strings.NewReader(`{
	  "tenants": [
	    {"name": "alice", "key": "alice-key"},
	    {"name": "bob", "key": "bob-key"}
	  ]}`))
	if err != nil {
		t.Fatal(err)
	}
	ckptDir := t.TempDir()
	srv, ts := newTestServer(t, Config{
		Workers:         1,
		Tenants:         reg,
		History:         1,
		StoreDir:        t.TempDir(),
		CheckpointDir:   ckptDir,
		CheckpointEvery: 2,
	})
	defer srv.Close()
	submit := func(key, spec string) int {
		t.Helper()
		code, _, body := authJSON(t, http.MethodPost, ts.URL+"/v1/jobs", key, spec)
		if code != http.StatusAccepted {
			t.Fatalf("%s submit %s: %d %v", key, spec, code, body)
		}
		return int(body["id"].(float64))
	}

	// Live: alice's job holds the worker; bob's job of the same name is
	// accepted, not turned away as a duplicate checkpoint key.
	long := `{"scenario":"landau","name":"steady","until":1000,"fixed_dt":0.01}`
	a1 := submit("alice-key", long)
	pollStatusAuth(t, ts.URL, a1, "alice-key", "running")
	b1 := submit("bob-key", long)
	for key, id := range map[string]int{"bob-key": b1, "alice-key": a1} {
		if code, _, body := authJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), key, ""); code != http.StatusAccepted {
			t.Fatalf("cancel %d: %d %v", id, code, body)
		}
	}
	pollStatusAuth(t, ts.URL, a1, "alice-key", "cancelled")

	// Finished: alice runs "twin" to its target, leaving snapshots up to the
	// final clock. Bob's "twin" must run all its steps from a cold start —
	// resuming from alice's directory would report zero.
	short := `{"scenario":"landau","name":"twin","until":0.06,"fixed_dt":0.01}`
	a2 := submit("alice-key", short)
	want := pollStatusAuth(t, ts.URL, a2, "alice-key", "done")["report"].(map[string]any)["steps"].(float64)
	if want < 6 {
		t.Fatalf("alice's run took %v steps, want ≥ 6", want)
	}
	b2 := submit("bob-key", short)
	if got := pollStatusAuth(t, ts.URL, b2, "bob-key", "done")["report"].(map[string]any)["steps"].(float64); got != want {
		t.Fatalf("bob's job took %v steps, want the full cold-start count %v", got, want)
	}
	for _, tn := range []string{"alice", "bob"} {
		if ckpts, _ := runner.ListCheckpoints(sched.JobCheckpointDir(ckptDir, tn, "twin")); len(ckpts) == 0 {
			t.Fatalf("tenant %s has no snapshots under its own directory", tn)
		}
	}

	// History 1: bob's completion archived alice's job. Its artifacts still
	// download — the index's tenant resolves the directory.
	// (The eviction rides the results consumer, so give it a beat.)
	var code int
	var ck map[string]any
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		code, _, ck = authJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d/checkpoints", ts.URL, a2), "alice-key", "")
		if ck["archived"] == true || time.Now().After(deadline) {
			break
		}
	}
	list, _ := ck["checkpoints"].([]any)
	if code != http.StatusOK || ck["archived"] != true || len(list) == 0 {
		t.Fatalf("archived checkpoints: %d %v", code, ck)
	}
	file := list[0].(map[string]any)["name"].(string)
	req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d/checkpoints/%s", ts.URL, a2, file), nil)
	req.Header.Set("Authorization", "Bearer alice-key")
	dl, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dl.Body.Close()
	if dl.StatusCode != http.StatusOK {
		t.Fatalf("archived tenant artifact download: %d", dl.StatusCode)
	}
}

// TestCancelQueuedReadsCancelledBeforeDispatch: a DELETE'd job that no
// worker has popped yet already reports cancelled — from the server's own
// entry, in both the status and the list document.
func TestCancelQueuedReadsCancelledBeforeDispatch(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	defer srv.Close()
	long := `{"scenario":"landau","name":%q,"until":1000,"fixed_dt":0.01}`
	_, body := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(long, "blocker"))
	blocker := int(body["id"].(float64))
	pollStatus(t, ts.URL, blocker, "running")
	_, body = postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(long, "victim"))
	victim := int(body["id"].(float64))
	if _, st := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, victim)); st["status"] != "queued" || st["attempt"] != 0.0 {
		t.Fatalf("queued status document: %v", st)
	}

	del := func(id int) (int, map[string]any) {
		code, _, out := authJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), "", "")
		return code, out
	}
	if code, out := del(victim); code != http.StatusAccepted {
		t.Fatalf("cancel queued: %d %v", code, out)
	}
	// The single worker is still inside the blocker, so nothing has popped
	// the victim: the answer comes from the entry's cancelled mark.
	if _, st := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, victim)); st["status"] != "cancelled" || st["name"] != "victim" {
		t.Fatalf("cancelled-while-queued status document: %v", st)
	}
	_, list := getJSON(t, ts.URL+"/v1/jobs")
	for _, j := range list["jobs"].([]any) {
		doc := j.(map[string]any)
		if want := map[int]string{blocker: "running", victim: "cancelled"}[int(doc["id"].(float64))]; doc["status"] != want {
			t.Fatalf("list document %v, want status %q", doc, want)
		}
	}
	if code, out := del(victim); code != http.StatusConflict || !strings.Contains(out["error"].(string), "already cancelled") {
		t.Fatalf("second cancel: %d %v", code, out)
	}
	del(blocker)
	pollStatus(t, ts.URL, blocker, "cancelled")
	pollStatus(t, ts.URL, victim, "cancelled")
}

// TestTerminalCheckpointsResolveUnderTightHistory: with History 1 the one
// retained terminal job still resolves its checkpoint directory after
// earlier jobs finished and were evicted — from the entry, with no
// scheduler record to consult.
func TestTerminalCheckpointsResolveUnderTightHistory(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Workers:         1,
		History:         1,
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 2,
	})
	defer srv.Close()
	var ids []int
	for _, name := range []string{"first", "second", "third"} {
		code, body := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(
			`{"scenario":"landau","name":%q,"until":0.06,"fixed_dt":0.01}`, name))
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %v", name, code, body)
		}
		ids = append(ids, int(body["id"].(float64)))
		pollStatus(t, ts.URL, ids[len(ids)-1], "done")
	}
	last := ids[len(ids)-1]
	code, ck := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d/checkpoints", ts.URL, last))
	list, _ := ck["checkpoints"].([]any)
	if code != http.StatusOK || ck["job"] != "third" || len(list) == 0 {
		t.Fatalf("terminal job's checkpoints: %d %v", code, ck)
	}
	dl, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/checkpoints/%s", ts.URL, last, list[0].(map[string]any)["name"]))
	if err != nil {
		t.Fatal(err)
	}
	dl.Body.Close()
	if dl.StatusCode != http.StatusOK {
		t.Fatalf("terminal job's artifact download: %d", dl.StatusCode)
	}
	// No store: the evicted jobs are simply gone (the eviction rides the
	// results consumer, so give it a beat).
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, ids[0]))
		if code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("evicted job without an index: %d", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubmitBodyBounded: a POST /v1/jobs body past maxSpecBytes is refused
// with 413 instead of being decoded without bound.
func TestSubmitBodyBounded(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	defer srv.Close()
	huge := `{"scenario":"landau","name":"` + strings.Repeat("x", maxSpecBytes) + `"}`
	if code, _ := postJSON(t, ts.URL+"/v1/jobs", huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: %d", code)
	}
	if code, body := postJSON(t, ts.URL+"/v1/jobs", `{"scenario":"landau","until":0.02,"fixed_dt":0.01}`); code != http.StatusAccepted {
		t.Fatalf("normal spec after an oversized one: %d %v", code, body)
	}
}

// TestTerminalStatusNeverWithoutReport pins the closed race deterministically:
// the scheduler tells a job's end through the notify callback and then, as the
// same value, on Results. Between the two — before the result consumer runs —
// a status read must not already answer terminal, because the report is not
// there yet; after it, status and report arrive together.
func TestTerminalStatusNeverWithoutReport(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	defer srv.Close()
	// An entry the stream knows nothing about, so the only deliveries are the
	// ones made below through the scheduler-facing entry points.
	spec := catalog.JobSpec{Scenario: "landau", Name: "told-once"}
	job, err := srv.cfg.Catalog.Job(spec)
	if err != nil {
		t.Fatal(err)
	}
	const id, sid = 7, 1 << 20
	e := srv.newEntry(&job, spec, "", 0, time.Now(), 0)
	e.id, e.sid = id, sid
	srv.mu.Lock()
	srv.jobs[id], srv.byStream[sid] = e, id
	srv.mu.Unlock()
	status := func() map[string]any {
		t.Helper()
		code, doc := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id))
		if code != http.StatusOK {
			t.Fatalf("status: %d %v", code, doc)
		}
		return doc
	}

	srv.onUpdate(sched.Update{ID: sid, Name: job.Name, Status: sched.Running, Attempt: 1})
	if doc := status(); doc["status"] != "running" {
		t.Fatalf("after Running: %v", doc)
	}
	end := sched.Update{ID: sid, Name: job.Name, Status: sched.Done, Attempt: 1,
		Report: &runner.Report{Steps: 3, Clock: 0.3, Reason: runner.ReasonUntil}}
	srv.onUpdate(end)
	if doc := status(); doc["status"] != "running" || doc["report"] != nil {
		t.Fatalf("told of the end, result not yet consumed: %v", doc)
	}
	srv.finish(end)
	doc := status()
	rep, _ := doc["report"].(map[string]any)
	if doc["status"] != "done" || rep == nil || rep["steps"] != 3.0 {
		t.Fatalf("after the result: %v", doc)
	}
}
