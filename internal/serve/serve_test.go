package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"vlasov6d/internal/catalog"
)

// newTestServer builds a server + httptest front end over the default
// catalog.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog = catalog.Default()
	}
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// checkNoGoroutineLeak fails the test unless, once it and its cleanups (the
// front end's Close among them: call this before newTestServer) are over, the
// goroutine count returns to what it was: the stream's workers, the result
// consumer, every SSE handler and observer pipeline must be gone, with a
// moment allowed for the runtime to reap them.
func checkNoGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(2 * time.Second)
		for {
			runtime.GC()
			g := runtime.NumGoroutine()
			if g <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines still alive, started with %d:\n%s",
					g, before, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// postJSON posts a body and decodes the JSON response.
func postJSON(t *testing.T, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp.StatusCode, out
}

// getJSON fetches a URL and decodes the JSON response.
func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp.StatusCode, out
}

// pollStatus polls a job until it reaches one of the wanted statuses.
func pollStatus(t *testing.T, base string, id int, want ...string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", base, id))
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

// TestHTTPLifecycle walks the whole service loop: submit by JSON spec →
// observe running → receive SSE diagnostics → cancel mid-run → list and
// download the checkpoint the run left → resubmit the same job name and
// verify it resumes from the snapshot instead of recomputing.
func TestHTTPLifecycle(t *testing.T) {
	checkNoGoroutineLeak(t)
	srv, ts := newTestServer(t, Config{
		Workers:         2,
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 10,
	})
	defer srv.Close()

	// Submit: a Landau run long enough (fixed dt, until 1000 → 1e5 steps)
	// that the cancel below always lands mid-run.
	spec := `{"scenario":"landau","name":"lifecycle","until":1000,"fixed_dt":0.01}`
	code, body := postJSON(t, ts.URL+"/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	if body["name"] != "lifecycle" {
		t.Fatalf("submit echoed name %v", body["name"])
	}

	// A malformed spec is rejected with a descriptive error.
	if code, errBody := postJSON(t, ts.URL+"/v1/jobs",
		`{"scenario":"landau","params":{"scheme":"psychic"}}`); code != http.StatusBadRequest {
		t.Fatalf("bad spec accepted: %d %v", code, errBody)
	}

	pollStatus(t, ts.URL, id, "running")

	// SSE: tail diagnostics until the run is past the first checkpoint
	// cadence (step ≥ 15 ⇒ the step-10 snapshot exists or is in flight).
	sseResp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/diagnostics", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	if got := sseResp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("SSE content type %q", got)
	}
	sawDiag := false
	scanner := bufio.NewScanner(sseResp.Body)
	var event string
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
			continue
		}
		if !strings.HasPrefix(line, "data: ") || event != "diag" {
			continue
		}
		var diag map[string]any
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &diag); err != nil {
			t.Fatalf("diag payload: %v", err)
		}
		if _, ok := diag["field_energy"]; !ok {
			t.Fatalf("diag payload missing solver extras: %v", diag)
		}
		if step := diag["step"].(float64); step >= 15 {
			sawDiag = true
			break
		}
	}
	sseResp.Body.Close()
	if !sawDiag {
		t.Fatal("SSE stream ended before delivering diagnostics")
	}

	// Cancel mid-run.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	pollStatus(t, ts.URL, id, "cancelled")

	// The checkpoints the cancelled run left are listed and downloadable.
	code, ckpts := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d/checkpoints", ts.URL, id))
	if code != http.StatusOK {
		t.Fatalf("checkpoints: %d %v", code, ckpts)
	}
	list := ckpts["checkpoints"].([]any)
	if len(list) == 0 {
		t.Fatal("cancelled run left no checkpoints")
	}
	first := list[0].(map[string]any)
	name := first["name"].(string)
	if first["format"] != "solver" { // plasma's private checksummed format
		t.Fatalf("checkpoint format %v", first["format"])
	}
	dl, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/checkpoints/%s", ts.URL, id, name))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(dl.Body)
	dl.Body.Close()
	if dl.StatusCode != http.StatusOK || int64(len(blob)) != int64(first["bytes"].(float64)) {
		t.Fatalf("download: %d, %d bytes (listing says %v)", dl.StatusCode, len(blob), first["bytes"])
	}
	// Path traversal and non-checkpoint names are rejected.
	if r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/checkpoints/%s", ts.URL, id, "ckpt_..%2f..%2fetc.v6d")); err == nil {
		if r.StatusCode == http.StatusOK {
			t.Fatal("traversal name served")
		}
		r.Body.Close()
	}

	// Resubmit the same job name with a tiny target: the scheduler must
	// resume from the snapshot — whose clock is far past the target — and
	// report immediately, without stepping. A cold start would run one
	// step and stop at clock ≈ 0.01.
	code, body = postJSON(t, ts.URL+"/v1/jobs", `{"scenario":"landau","name":"lifecycle","until":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: %d %v", code, body)
	}
	id2 := int(body["id"].(float64))
	final := pollStatus(t, ts.URL, id2, "done", "failed")
	if final["status"] != "done" {
		t.Fatalf("resumed job: %v", final)
	}
	rep := final["report"].(map[string]any)
	if steps := rep["steps"].(float64); steps != 0 {
		t.Fatalf("resumed job stepped %v times; resume should satisfy the target instantly", steps)
	}
	if clock := rep["clock"].(float64); clock < 0.05 {
		t.Fatalf("resumed clock %v: job cold-started instead of resuming", clock)
	}

	// Metrics moved: 2 submissions, 1 completed, 1 cancelled.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"vlasovd_jobs_submitted_total 2",
		"vlasovd_jobs_completed_total 1",
		"vlasovd_jobs_cancelled_total 1",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// The full job list includes both submissions.
	code, listBody := getJSON(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK || len(listBody["jobs"].([]any)) != 2 {
		t.Fatalf("job list: %d %v", code, listBody)
	}
}

func TestScenariosEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	defer srv.Close()
	code, body := getJSON(t, ts.URL+"/v1/scenarios")
	if code != http.StatusOK {
		t.Fatalf("scenarios: %d", code)
	}
	scs := body["scenarios"].([]any)
	if len(scs) != 5 {
		t.Fatalf("%d scenarios listed", len(scs))
	}
	first := scs[0].(map[string]any)
	if first["name"] != "landau" || first["params"] == nil {
		t.Fatalf("scenario listing shape: %v", first)
	}
}

func TestDrainGraceful(t *testing.T) {
	checkNoGoroutineLeak(t)
	srv, ts := newTestServer(t, Config{Workers: 1})
	// A short job that finishes on its own.
	code, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"scenario":"landau","name":"quick","until":0.5}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	// Intake is closed: a new submission is refused with 503.
	code, _ = postJSON(t, ts.URL+"/v1/jobs", `{"scenario":"landau"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d", code)
	}
	// The drained job completed rather than being cancelled.
	code, final := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, int(body["id"].(float64))))
	if code != http.StatusOK || final["status"] != "done" {
		t.Fatalf("drained job: %d %v", code, final)
	}
}

func TestDrainDeadlineCancels(t *testing.T) {
	checkNoGoroutineLeak(t)
	srv, ts := newTestServer(t, Config{Workers: 1})
	// Effectively endless job.
	code, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"scenario":"landau","name":"endless","until":1000000,"fixed_dt":0.01}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	pollStatus(t, ts.URL, id, "running")
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("drain of an endless job returned clean")
	}
	code, final := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id))
	if code != http.StatusOK || final["status"] != "cancelled" {
		t.Fatalf("deadline-drained job: %d %v", code, final)
	}
}
