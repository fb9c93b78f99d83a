package serve

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"vlasov6d/internal/store"
)

// traceSpanNames fetches a job's trace and returns the span-name multiset
// plus the decoded document.
func traceSpanNames(t *testing.T, base string, id int) (map[string]int, map[string]any) {
	t.Helper()
	code, body := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d/trace", base, id))
	if code != http.StatusOK {
		t.Fatalf("trace %d: %d %v", id, code, body)
	}
	names := make(map[string]int)
	spans, _ := body["spans"].([]any)
	for _, raw := range spans {
		sp, _ := raw.(map[string]any)
		name, _ := sp["name"].(string)
		names[name]++
	}
	return names, body
}

// TestTraceLifecycle is the tentpole proof: a job's trace covers every
// phase of its life — admission, queue wait, dispatch, the running
// segment, checkpoint writes — while live, and the identical timeline
// survives history eviction via the artifact index.
func TestTraceLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Workers:         1,
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 10,
		StoreDir:        t.TempDir(),
		History:         1, // second terminal job evicts the first
	})
	defer srv.Close()

	code, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"scenario":"landau","name":"traced","until":0.5,"fixed_dt":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	pollStatus(t, ts.URL, id, "done")

	names, doc := traceSpanNames(t, ts.URL, id)
	for _, want := range []string{"admission", "queue", "dispatch", "run", "checkpoint"} {
		if names[want] == 0 {
			t.Fatalf("live trace missing %q span: %v", want, names)
		}
	}
	if doc["archived"] != nil {
		t.Fatalf("live trace marked archived: %v", doc["archived"])
	}
	if dropped := doc["dropped_spans"].(float64); dropped != 0 {
		t.Fatalf("live trace dropped %v spans", dropped)
	}
	liveSpans := len(doc["spans"].([]any))

	// The run span must be closed (the job is terminal) and carry the
	// attempt attribute; the checkpoint spans carry the snapshot clock.
	for _, raw := range doc["spans"].([]any) {
		sp := raw.(map[string]any)
		if sp["open"] == true {
			t.Fatalf("terminal job has open span: %v", sp)
		}
		attrs, _ := sp["attrs"].(map[string]any)
		switch sp["name"] {
		case "run":
			if attrs["attempt"] == nil {
				t.Fatalf("run span missing attempt attr: %v", sp)
			}
		case "checkpoint":
			if attrs["clock"] == nil {
				t.Fatalf("checkpoint span missing clock attr: %v", sp)
			}
		}
	}

	// A second terminal job evicts the first from live history
	// (History: 1); its trace must come back unchanged from the index.
	code, body = postJSON(t, ts.URL+"/v1/jobs",
		`{"scenario":"landau","name":"evictor","until":0.1,"fixed_dt":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit evictor: %d %v", code, body)
	}
	pollStatus(t, ts.URL, int(body["id"].(float64)), "done")

	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		_, live := srv.jobs[id]
		srv.mu.Unlock()
		if !live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never evicted from live history")
		}
		time.Sleep(10 * time.Millisecond)
	}

	archivedNames, archivedDoc := traceSpanNames(t, ts.URL, id)
	if archivedDoc["archived"] != true {
		t.Fatalf("evicted trace not marked archived: %v", archivedDoc["archived"])
	}
	for _, want := range []string{"admission", "queue", "dispatch", "run", "checkpoint"} {
		if archivedNames[want] == 0 {
			t.Fatalf("archived trace missing %q span: %v", want, archivedNames)
		}
	}
	if got := len(archivedDoc["spans"].([]any)); got != liveSpans {
		t.Fatalf("archived trace has %d spans, live had %d", got, liveSpans)
	}
}

// TestArchivedListing pins the ?archived=1 satellite: finished jobs stay
// listable from the artifact index after live-history eviction, scoped to
// the requesting tenant.
func TestArchivedListing(t *testing.T) {
	storeDir := t.TempDir()
	keysPath := storeDir + "/keys.json"
	reg := writeKeys(t, keysPath, `{"tenants": [
		{"name": "alice", "key": "alice-key"},
		{"name": "bob", "key": "bob-key"}
	]}`)
	srv, ts := newTestServer(t, Config{
		Workers:  1,
		StoreDir: storeDir,
		Tenants:  reg,
		KeysPath: keysPath,
		History:  1,
	})
	defer srv.Close()

	submit := func(key, name string) int {
		code, _, body := authJSON(t, http.MethodPost, ts.URL+"/v1/jobs", key,
			fmt.Sprintf(`{"scenario":"landau","name":%q,"until":0.1,"fixed_dt":0.01}`, name))
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %v", name, code, body)
		}
		id := int(body["id"].(float64))
		pollStatusAuth(t, ts.URL, id, key, "done")
		return id
	}
	aliceID := submit("alice-key", "alice-job")
	submit("bob-key", "bob-job")

	code, _, body := authJSON(t, http.MethodGet, ts.URL+"/v1/jobs?archived=1", "alice-key", "")
	if code != http.StatusOK {
		t.Fatalf("archived listing: %d %v", code, body)
	}
	jobs, _ := body["jobs"].([]any)
	if len(jobs) != 1 {
		t.Fatalf("alice sees %d archived jobs, want exactly her own: %v", len(jobs), body)
	}
	entry := jobs[0].(map[string]any)
	if int(entry["id"].(float64)) != aliceID || entry["archived"] != true {
		t.Fatalf("archived entry wrong: %v", entry)
	}

	// Without a store there is no index to list.
	srv2, ts2 := newTestServer(t, Config{Workers: 1})
	defer srv2.Close()
	if code, body := getJSON(t, ts2.URL+"/v1/jobs?archived=1"); code != http.StatusNotFound {
		t.Fatalf("archived listing without store: %d %v", code, body)
	}
}

// TestMetricsHistograms pins the exposition shape of the four latency
// histogram families after real work flowed: HELP/TYPE annotations,
// cumulative buckets ending at +Inf, and _count equal to the +Inf bucket.
func TestMetricsHistograms(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Workers:         1,
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 10,
	})
	defer srv.Close()

	code, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"scenario":"landau","name":"measured","until":0.5,"fixed_dt":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	pollStatus(t, ts.URL, int(body["id"].(float64)), "done")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)

	families := []string{
		"vlasovd_queue_wait_seconds",
		"vlasovd_dispatch_latency_seconds",
		"vlasovd_step_duration_seconds",
		"vlasovd_checkpoint_write_seconds",
	}
	for _, fam := range families {
		if !strings.Contains(text, "# TYPE "+fam+" histogram") {
			t.Fatalf("missing TYPE line for %s", fam)
		}
		if !strings.Contains(text, "# HELP "+fam+" ") {
			t.Fatalf("missing HELP line for %s", fam)
		}
		var lastBucket, count int64 = -1, -1
		var infBucket int64 = -1
		sawSum := false
		for _, line := range strings.Split(text, "\n") {
			switch {
			case strings.HasPrefix(line, fam+"_bucket{le=\""):
				rest := strings.TrimPrefix(line, fam+"_bucket{le=\"")
				i := strings.Index(rest, "\"} ")
				if i < 0 {
					t.Fatalf("unparsable bucket line %q", line)
				}
				v, err := strconv.ParseInt(rest[i+3:], 10, 64)
				if err != nil {
					t.Fatalf("bucket value in %q: %v", line, err)
				}
				if v < lastBucket {
					t.Fatalf("%s buckets not cumulative: %q after %d", fam, line, lastBucket)
				}
				lastBucket = v
				if rest[:i] == "+Inf" {
					infBucket = v
				}
			case strings.HasPrefix(line, fam+"_sum "):
				sawSum = true
			case strings.HasPrefix(line, fam+"_count "):
				count, _ = strconv.ParseInt(strings.TrimPrefix(line, fam+"_count "), 10, 64)
			}
		}
		if !sawSum || infBucket < 0 || count < 0 {
			t.Fatalf("%s incomplete exposition (sum %v, +Inf %d, count %d)", fam, sawSum, infBucket, count)
		}
		if count != infBucket {
			t.Fatalf("%s count %d != +Inf bucket %d", fam, count, infBucket)
		}
		if count == 0 {
			t.Fatalf("%s recorded no observations after a completed job", fam)
		}
	}
}

// readSSEEvents reads SSE frames until fn says stop, returning the last
// event id seen.
func readSSEEvents(t *testing.T, body io.Reader, fn func(id int64, event, data string) bool) int64 {
	t.Helper()
	scanner := bufio.NewScanner(body)
	var event string
	var id, lastID int64
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id, _ = strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if id > 0 {
				lastID = id
			}
			if !fn(id, event, strings.TrimPrefix(line, "data: ")) {
				return lastID
			}
			id = 0
		}
	}
	return lastID
}

// TestEventSchemaStamped pins the SSE contract satellite: every event
// payload the daemon emits carries "schema":"v1".
func TestEventSchemaStamped(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	defer srv.Close()

	code, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"scenario":"landau","name":"schema","until":0.2,"fixed_dt":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/diagnostics", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	checked := 0
	readSSEEvents(t, resp.Body, func(_ int64, event, data string) bool {
		if !strings.Contains(data, `"schema":"v1"`) {
			t.Fatalf("%s event without schema stamp: %s", event, data)
		}
		checked++
		return event != "done"
	})
	if checked < 3 {
		t.Fatalf("only %d events observed", checked)
	}
}

// TestRingSequenceContinuesAcrossRestart pins the restart-reset fix: event
// sequence numbers journaled per job mean a daemon restart continues a
// recovered job's numbering past the reservation instead of restarting at
// 1 — a resuming client keeps its cursor and is told about the (bounded)
// gap explicitly.
func TestRingSequenceContinuesAcrossRestart(t *testing.T) {
	storeDir, ckptDir := t.TempDir(), t.TempDir()
	srv, ts := newTestServer(t, Config{
		Workers:         1,
		CheckpointDir:   ckptDir,
		CheckpointEvery: 10,
		StoreDir:        storeDir,
	})

	code, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"scenario":"landau","name":"reborn","until":1000,"fixed_dt":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	pollStatus(t, ts.URL, id, "running")

	// Read a few live events to establish a client cursor.
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/diagnostics", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	cursor := readSSEEvents(t, resp.Body, func(evID int64, _, _ string) bool {
		if evID > 0 {
			seen++
		}
		return seen < 5
	})
	resp.Body.Close()
	if cursor < 1 {
		t.Fatalf("no event ids observed before restart (cursor %d)", cursor)
	}

	// SIGKILL-equivalent restart over the same store.
	srv.Close()
	srv2, ts2 := newTestServer(t, Config{
		Workers:         1,
		CheckpointDir:   ckptDir,
		CheckpointEvery: 10,
		StoreDir:        storeDir,
	})
	defer srv2.Close()
	pollStatus(t, ts2.URL, id, "running", "done")

	// Resume with the pre-restart cursor: the new life's sequence numbers
	// must continue past it (no reset to 1), and the missed window is an
	// explicit ring gap, not a "reset" (which would mean the cursor did
	// not resolve against this ring's numbering).
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%d/diagnostics?last_event_id=%d", ts2.URL, id, cursor))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var firstID int64
	sawReset := false
	readSSEEvents(t, resp.Body, func(evID int64, event, data string) bool {
		if event == "gap" && strings.Contains(data, `"source":"reset"`) {
			sawReset = true
			return false
		}
		if evID > 0 {
			firstID = evID
			return false
		}
		return true
	})
	if sawReset {
		t.Fatalf("restart produced a cursor reset; sequences should continue via the journaled reservation")
	}
	if firstID <= cursor {
		t.Fatalf("post-restart event id %d not past pre-restart cursor %d", firstID, cursor)
	}
	if firstID <= store.EventSeqBlock {
		t.Fatalf("post-restart id %d inside the first reservation block; ring did not continue from the journal", firstID)
	}
}

// TestPprofAdminGate pins the profiling satellite: /v1/admin/pprof/ serves
// profiles to admin tenants only — 200 for ops, 403 for a plain tenant,
// 401 unauthenticated, 404 in open mode (no admin surface exists).
func TestPprofAdminGate(t *testing.T) {
	keysPath := t.TempDir() + "/keys.json"
	reg := writeKeys(t, keysPath, `{"tenants": [
		{"name": "ops", "key": "ops-key", "admin": true},
		{"name": "alice", "key": "alice-key"}
	]}`)
	srv, ts := newTestServer(t, Config{Workers: 1, Tenants: reg, KeysPath: keysPath})
	defer srv.Close()

	get := func(token string) int {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/admin/pprof/heap?debug=1", nil)
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
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("ops-key"); code != http.StatusOK {
		t.Fatalf("admin pprof: %d", code)
	}
	if code := get("alice-key"); code != http.StatusForbidden {
		t.Fatalf("non-admin pprof: %d, want 403", code)
	}
	if code := get(""); code != http.StatusUnauthorized {
		t.Fatalf("anonymous pprof: %d, want 401", code)
	}

	srvOpen, tsOpen := newTestServer(t, Config{Workers: 1})
	defer srvOpen.Close()
	resp, err := http.Get(tsOpen.URL + "/v1/admin/pprof/heap")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("open-mode pprof: %d, want 404", resp.StatusCode)
	}
}
