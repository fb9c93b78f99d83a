package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"vlasov6d/internal/tenant"
)

// sseEvt is one parsed server-sent event.
type sseEvt struct {
	id   int64 // 0 when the event carried no id line
	typ  string
	data map[string]any
}

// readSSE parses events off an open SSE body, calling fn per event until
// fn returns false or the stream ends.
func readSSE(body io.Reader, fn func(sseEvt) bool) {
	scanner := bufio.NewScanner(body)
	var ev sseEvt
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			ev.id, _ = strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
		case strings.HasPrefix(line, "event: "):
			ev.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = nil
			json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev.data)
		case line == "":
			if ev.typ != "" && !fn(ev) {
				return
			}
			ev = sseEvt{}
		}
	}
}

// openSSE connects to a job's diagnostics stream, optionally resuming.
func openSSE(t *testing.T, base string, id int, lastEventID int64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/v1/jobs/%d/diagnostics", base, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastEventID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// metricValue greps one un-labelled sample out of a /metrics body.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatalf("metric %s: unparsable line %q", name, line)
			}
			return v
		}
	}
	t.Fatalf("metric %s absent", name)
	return 0
}

// TestSSEResumeContiguous is the tentpole's core contract: disconnect
// mid-run, reconnect with Last-Event-ID, and receive every ring event
// exactly once — ids contiguous across the break, no gap event (the window
// was retained), terminal "done" closing the resumed stream.
func TestSSEResumeContiguous(t *testing.T) {
	// The job emits thousands of events per second; the ring must retain
	// the whole resume window for the test's lifetime (incl. the eta
	// polling below) or this flakes into TestSSEEvictionGap's territory.
	srv, ts := newTestServer(t, Config{Workers: 2, RingSize: 1 << 18})
	code, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"scenario":"landau","name":"resume","until":1000,"fixed_dt":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	pollStatus(t, ts.URL, id, "running")

	// First connection: consume until a mid-run diag, remember the last id.
	var lastID int64
	resp := openSSE(t, ts.URL, id, 0)
	readSSE(resp.Body, func(ev sseEvt) bool {
		if ev.id > 0 {
			if lastID > 0 && ev.id != lastID+1 {
				t.Errorf("first connection ids not dense: %d after %d", ev.id, lastID)
			}
			lastID = ev.id
		}
		step, _ := ev.data["step"].(float64)
		return !(ev.typ == "diag" && step >= 10)
	})
	resp.Body.Close()
	if lastID == 0 {
		t.Fatal("first connection saw no id-stamped events")
	}

	// While running, the status document carries the clock target and an
	// ETA projection from the machine model.
	st := pollStatus(t, ts.URL, id, "running")
	if until, _ := st["until"].(float64); until != 1000 {
		t.Fatalf("status until = %v, want 1000", st["until"])
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if eta, ok := st["eta_seconds"].(float64); ok {
			if eta <= 0 {
				t.Fatalf("eta_seconds = %v, want positive", eta)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("running status never grew an eta_seconds projection")
		}
		time.Sleep(20 * time.Millisecond)
		st = pollStatus(t, ts.URL, id, "running")
	}

	// Resume only once the ring holds an event past the cursor: a resume
	// into a window with nothing newer replays nothing, and the replay
	// counter below would rightly stay 0.
	for deadline = time.Now().Add(10 * time.Second); ; {
		srv.mu.Lock()
		head := srv.jobs[id].ring.head()
		srv.mu.Unlock()
		if head > lastID {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring head stuck at %d, the cursor", head)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Reconnect with Last-Event-ID: the replay must pick up at exactly
	// lastID+1 — nothing skipped, nothing repeated, no gap.
	resp = openSSE(t, ts.URL, id, lastID)
	first := true
	cursor := lastID
	sawReplay := false
	readSSE(resp.Body, func(ev sseEvt) bool {
		if ev.typ == "gap" {
			t.Errorf("gap on a retained-window resume: %v", ev.data)
		}
		if ev.id > 0 {
			if first && ev.id != lastID+1 {
				t.Errorf("resume started at id %d, want %d", ev.id, lastID+1)
			}
			if !first && ev.id != cursor+1 {
				t.Errorf("resumed ids not dense: %d after %d", ev.id, cursor)
			}
			cursor = ev.id
			first = false
			sawReplay = true
		}
		// A few resumed events are enough; then cancel mid-stream below.
		return !(ev.id >= lastID+5)
	})
	resp.Body.Close()
	if !sawReplay {
		t.Fatal("resumed connection delivered no events")
	}
	if replayed := metricValue(t, ts.URL, "vlasovd_sse_replayed_total"); replayed == 0 {
		t.Fatal("vlasovd_sse_replayed_total did not count the resume")
	}

	// Cancel, then a final resume must replay through to the terminal
	// "done" event and close.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), nil)
	if dr, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		dr.Body.Close()
	}
	pollStatus(t, ts.URL, id, "cancelled")
	resp = openSSE(t, ts.URL, id, cursor)
	sawDone := false
	readSSE(resp.Body, func(ev sseEvt) bool {
		if ev.typ == "done" {
			sawDone = true
			if ev.data["status"] != "cancelled" {
				t.Errorf("done document: %v", ev.data)
			}
			return false
		}
		return true
	})
	resp.Body.Close()
	if !sawDone {
		t.Fatal("terminal resume never delivered done")
	}
}

// TestSSEEvictionGap: a resume pointing before the ring's retained window
// gets an explicit gap event carrying the evicted count, then the retained
// events — loss is visible, never silent. An id from a previous daemon
// life (past the ring head) is answered with a reset gap.
func TestSSEEvictionGap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, RingSize: 8})
	code, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"scenario":"landau","name":"evict","until":1000,"fixed_dt":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	pollStatus(t, ts.URL, id, "running")

	// Let the ring wrap a few times.
	resp := openSSE(t, ts.URL, id, 0)
	readSSE(resp.Body, func(ev sseEvt) bool {
		step, _ := ev.data["step"].(float64)
		return !(ev.typ == "diag" && step >= 40)
	})
	resp.Body.Close()

	dropped := metricValue(t, ts.URL, "vlasovd_sse_dropped_total")

	// Resume from id 1: events 2..firstRetained-1 are gone.
	resp = openSSE(t, ts.URL, id, 1)
	var gapMissed float64
	var firstID int64
	readSSE(resp.Body, func(ev sseEvt) bool {
		if ev.typ == "gap" && gapMissed == 0 {
			gapMissed, _ = ev.data["missed"].(float64)
			if src := ev.data["source"]; src != "ring" {
				t.Errorf("gap source %v, want ring", src)
			}
			if ev.id != 0 {
				t.Errorf("synthetic gap carried id %d", ev.id)
			}
			return true
		}
		if ev.id > 0 {
			firstID = ev.id
			return false
		}
		return true
	})
	resp.Body.Close()
	if gapMissed <= 0 {
		t.Fatal("eviction resume produced no gap event")
	}
	if firstID != int64(gapMissed)+2 {
		t.Fatalf("first replayed id %d does not line up with gap of %v after cursor 1", firstID, gapMissed)
	}
	if after := metricValue(t, ts.URL, "vlasovd_sse_dropped_total"); after < dropped+gapMissed {
		t.Fatalf("vlasovd_sse_dropped_total %v did not count the %v-event gap (was %v)", after, gapMissed, dropped)
	}

	// A cursor past the head cannot resolve: the stream opens with an
	// explicit reset gap instead of silently pretending to resume.
	resp = openSSE(t, ts.URL, id, 1<<40)
	sawReset := false
	readSSE(resp.Body, func(ev sseEvt) bool {
		sawReset = ev.typ == "gap" && ev.data["source"] == "reset"
		return false // first event decides
	})
	resp.Body.Close()
	if !sawReset {
		t.Fatal("unresolvable Last-Event-ID not answered with a reset gap")
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), nil)
	if dr, err := http.DefaultClient.Do(req); err == nil {
		dr.Body.Close()
	}
}

// TestArtifactIndexAnswersAfterEviction: with a StoreDir, a finished job
// evicted from the bounded in-memory history keeps answering — status from
// the artifact index (marked archived), checkpoints from the indexed
// listing, the files themselves still downloadable — while the live-only
// surfaces degrade explicitly (diagnostics 404, cancel 409).
func TestArtifactIndexAnswersAfterEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:         2,
		History:         1,
		StoreDir:        t.TempDir(),
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 2,
	})
	submit := func(name string) int {
		code, body := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(
			`{"scenario":"landau","name":%q,"until":0.06,"fixed_dt":0.01}`, name))
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %v", name, code, body)
		}
		return int(body["id"].(float64))
	}
	idA := submit("first")
	pollStatus(t, ts.URL, idA, "done")
	idB := submit("second")
	pollStatus(t, ts.URL, idB, "done")

	// History 1: B's completion evicts A from the in-memory map. The
	// eviction happens in the results consumer, so give it a beat.
	deadline := time.Now().Add(5 * time.Second)
	var code int
	var st map[string]any
	for {
		code, st = getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, idA))
		if st["archived"] == true || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code != http.StatusOK {
		t.Fatalf("evicted job status: %d %v", code, st)
	}
	if st["archived"] != true || st["status"] != "done" || st["name"] != "first" {
		t.Fatalf("archived status document: %v", st)
	}
	rep, ok := st["report"].(map[string]any)
	if !ok || rep["steps"].(float64) < 1 {
		t.Fatalf("archived report: %v", st["report"])
	}

	// The checkpoint listing answers from the index.
	code, ck := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d/checkpoints", ts.URL, idA))
	if code != http.StatusOK || ck["archived"] != true {
		t.Fatalf("archived checkpoints: %d %v", code, ck)
	}
	list, _ := ck["checkpoints"].([]any)
	if len(list) == 0 {
		t.Fatal("archived checkpoint listing empty; the run checkpointed every 2 steps")
	}
	// ... and the artifact itself still downloads.
	name := list[0].(map[string]any)["name"].(string)
	dl, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/checkpoints/%s", ts.URL, idA, name))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(dl.Body)
	dl.Body.Close()
	if dl.StatusCode != http.StatusOK || len(blob) == 0 {
		t.Fatalf("archived artifact download: %d, %d bytes", dl.StatusCode, len(blob))
	}

	// Live-only surfaces refuse explicitly.
	if dg, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/diagnostics", ts.URL, idA)); err == nil {
		if dg.StatusCode != http.StatusNotFound {
			t.Fatalf("evicted diagnostics: %d", dg.StatusCode)
		}
		dg.Body.Close()
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, idA), nil)
	if dr, err := http.DefaultClient.Do(req); err == nil {
		if dr.StatusCode != http.StatusConflict {
			t.Fatalf("evicted cancel: %d", dr.StatusCode)
		}
		dr.Body.Close()
	}
}

// TestMetricsLabelEscaping pins the exposition-format fix: a non-ASCII
// tenant name must appear as raw UTF-8 (the format is UTF-8; %q's \uXXXX
// is unparsable), while quotes and backslashes get the three mandated
// escapes — and plain ASCII names stay byte-identical.
func TestMetricsLabelEscaping(t *testing.T) {
	reg, err := tenant.Parse(strings.NewReader(`{
	  "tenants": [
	    {"name": "alice", "key": "alice-key"},
	    {"name": "プラズマ団", "key": "utf8-key"},
	    {"name": "quo\"te\\back", "key": "esc-key"}
	  ]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Tenants: reg})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(blob)
	for _, want := range []string{
		`vlasovd_tenant_queue_depth{tenant="alice"} 0`,
		`vlasovd_tenant_queue_depth{tenant="プラズマ団"} 0`,
		`vlasovd_tenant_queue_depth{tenant="quo\"te\\back"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	if strings.Contains(body, `\u`) {
		t.Error("metrics still contain \\uXXXX escapes — not valid exposition format")
	}
}
