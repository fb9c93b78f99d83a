package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vlasov6d/internal/catalog"
	"vlasov6d/internal/plasma"
	"vlasov6d/internal/runner"
	"vlasov6d/internal/sched"
)

// pipelineQueue is the runner's async queue capacity: a stalled observer
// loses observations once this many events wait.
const pipelineQueue = 256

// scripted is a small Landau solver whose Step first calls hook with the
// number of steps this solver has taken; a hook error fails the step.
type scripted struct {
	*plasma.Solver
	hook  func(step int) error
	steps int
}

func (s *scripted) Step(dt float64) error {
	if err := s.hook(s.steps); err != nil {
		return err
	}
	s.steps++
	return s.Solver.Step(dt)
}

// scriptedCatalog is the default catalog plus the "scripted" scenario:
// a 16×32 Landau run whose every step first calls hook with the attempt
// (1-based: one per Build) and the step about to run (0-based).
func scriptedCatalog(t *testing.T, hook func(attempt, step int) error) *catalog.Catalog {
	t.Helper()
	c := catalog.Default()
	var builds atomic.Int32
	err := c.Register(catalog.Scenario{
		Name:         "scripted",
		Description:  "Landau damping with a test hook before every step",
		DefaultUntil: 1000,
		Build: func(catalog.Values, int) (runner.Solver, error) {
			s, err := plasma.NewWithScheme(16, 32, 2*math.Pi/0.5, 8, "slmpp5")
			if err != nil {
				return nil, err
			}
			s.LandauInit(0.01, 0.5, 1)
			attempt := int(builds.Add(1))
			return &scripted{Solver: s, hook: func(step int) error { return hook(attempt, step) }}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// collectSSE reads a job's whole event stream, from its first event to
// "done", on its own goroutine, calling onDiag (if non-nil) with each diag's
// step as it arrives. The returned channel yields every event once the
// stream ends.
func collectSSE(t *testing.T, base string, id int, onDiag func(step int)) <-chan []sseEvt {
	t.Helper()
	resp := openSSE(t, base, id, 0)
	out := make(chan []sseEvt, 1)
	go func() {
		defer resp.Body.Close()
		var evs []sseEvt
		readSSE(resp.Body, func(ev sseEvt) bool {
			evs = append(evs, ev)
			if step, ok := ev.data["step"].(float64); ok && ev.typ == "diag" && onDiag != nil {
				onDiag(int(step))
			}
			return ev.typ != "done"
		})
		out <- evs
	}()
	return out
}

// awaitEvents waits for a collectSSE result.
func awaitEvents(t *testing.T, got <-chan []sseEvt) []sseEvt {
	t.Helper()
	select {
	case evs := <-got:
		return evs
	case <-time.After(30 * time.Second):
		t.Fatal("event stream never reached done")
		return nil
	}
}

// TestObserverGapsCoverEveryStep: the pipeline drops the oldest
// observations while the observer stalls, and serve reads each drop off the
// jump in the delivered step numbers. The "gap" events' missed counts sum
// to the report's dropped_obs and to the change in vlasovd_sse_dropped_total,
// and with the delivered diags they cover every step exactly once.
func TestObserverGapsCoverEveryStep(t *testing.T) {
	checkNoGoroutineLeak(t)
	const steps = 2000
	// The last step waits until the stream has delivered the one before
	// it, so the reader is level with the ring when finish trims it.
	last := make(chan struct{})
	var releaseLast sync.Once
	cat := scriptedCatalog(t, func(_, step int) error {
		if step == steps-1 {
			<-last
		}
		return nil
	})
	srv, ts := newTestServer(t, Config{Catalog: cat, Workers: 1, RingSize: 1 << 16})
	defer srv.Close()
	defer releaseLast.Do(func() { close(last) }) // before Close drains the job
	dropped0 := metricValue(t, ts.URL, "vlasovd_sse_dropped_total")

	code, body := postJSON(t, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"scenario":"scripted","name":"gaps","max_steps":%d,"fixed_dt":0.01}`, steps))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	// Step steps-2 is the newest observation before the gated step: no
	// later enqueue can evict it, so it is delivered.
	reached := make(chan struct{})
	got := collectSSE(t, ts.URL, id, func(step int) {
		if step == steps-2 {
			close(reached)
		}
	})

	// Once the job steps, hold the server lock: the observer blocks on it,
	// while the step loop, which takes no server lock, runs on. Release it
	// only after the loop has taken two queues' worth of steps more.
	deadline := time.Now().Add(20 * time.Second)
	for srv.histStep.Count() == 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	srv.mu.Lock()
	held := srv.histStep.Count()
	for srv.histStep.Count() < held+2*pipelineQueue+64 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	passed := srv.histStep.Count() - held
	srv.mu.Unlock()
	if held == 0 || passed < 2*pipelineQueue+64 {
		t.Fatalf("step loop took %d steps under the held lock (from %d), want ≥ %d",
			passed, held, 2*pipelineQueue+64)
	}

	select {
	case <-reached:
	case <-time.After(20 * time.Second):
		t.Fatal("the stream never delivered the last ungated step")
	}
	releaseLast.Do(func() { close(last) })
	evs := awaitEvents(t, got)

	st := pollStatus(t, ts.URL, id, "done")
	rep, _ := st["report"].(map[string]any)
	if rep == nil || rep["steps"] != float64(steps) {
		t.Fatalf("report %v, want %d steps", rep, steps)
	}
	droppedObs := int64(rep["dropped_obs"].(float64))
	if droppedObs == 0 {
		t.Fatal("holding the observer for two queues' worth of steps dropped nothing")
	}

	covered := make([]int, steps)
	prev, missedSum, pending := -1, int64(0), int64(0)
	for _, ev := range evs {
		switch ev.typ {
		case "gap":
			if ev.data["source"] != "observer" {
				t.Fatalf("gap from %v: the ring must not evict here", ev.data)
			}
			if ev.id == 0 {
				t.Fatalf("observer gap without an id: it is a ring event")
			}
			m := int64(ev.data["missed"].(float64))
			for s := prev + 1; s <= prev+int(m) && s < steps; s++ {
				covered[s]++
			}
			missedSum += m
			pending = m
		case "diag":
			step := int(ev.data["step"].(float64))
			if step != prev+int(pending)+1 {
				t.Fatalf("diag step %d after step %d and a gap of %d", step, prev, pending)
			}
			covered[step]++
			prev, pending = step, 0
		}
	}
	for s, n := range covered {
		if n != 1 {
			t.Fatalf("step %d covered %d times by the diags and gaps", s, n)
		}
	}
	if missedSum != droppedObs {
		t.Fatalf("gaps report %d missed, report.dropped_obs %d", missedSum, droppedObs)
	}
	if d := metricValue(t, ts.URL, "vlasovd_sse_dropped_total") - dropped0; d != float64(droppedObs) {
		t.Fatalf("vlasovd_sse_dropped_total rose by %v, report.dropped_obs %d", d, droppedObs)
	}
}

// TestObserverGapsRestartWithAttempt: a retried attempt numbers its steps
// from 0 again, which is no gap: every step of both attempts is delivered
// and the stream carries no "gap" event.
func TestObserverGapsRestartWithAttempt(t *testing.T) {
	checkNoGoroutineLeak(t)
	const failAt = 30
	cat := scriptedCatalog(t, func(attempt, step int) error {
		if attempt == 1 && step == failAt {
			return runner.MarkRetryable(errors.New("transient"))
		}
		return nil
	})
	srv, ts := newTestServer(t, Config{Catalog: cat, Workers: 1})
	defer srv.Close()
	code, body := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(
		`{"scenario":"scripted","name":"retry","max_steps":%d,"fixed_dt":0.01,"retries":1}`, failAt+10))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	evs := awaitEvents(t, collectSSE(t, ts.URL, id, nil))

	st := pollStatus(t, ts.URL, id, "done")
	if st["attempt"] != float64(2) {
		t.Fatalf("finished on attempt %v, want 2", st["attempt"])
	}
	rep, _ := st["report"].(map[string]any)
	if rep == nil || rep["dropped_obs"] != float64(0) {
		t.Fatalf("report %v, want no drops", rep)
	}
	want := map[int]int{1: failAt, 2: failAt + 10}
	attempt, next := 0, 0
	for _, ev := range evs {
		switch ev.typ {
		case "gap":
			t.Fatalf("gap on attempt %d at step %d: %v", attempt, next, ev.data)
		case "status":
			if ev.data["status"] == "running" {
				if attempt > 0 && next != want[attempt] {
					t.Fatalf("attempt %d delivered %d steps, want %d", attempt, next, want[attempt])
				}
				attempt, next = int(ev.data["attempt"].(float64)), 0
			}
		case "diag":
			if step := int(ev.data["step"].(float64)); step != next {
				t.Fatalf("attempt %d: diag step %d, want %d", attempt, step, next)
			}
			next++
		}
	}
	if attempt != 2 || next != want[2] {
		t.Fatalf("stream ended on attempt %d after %d steps, want attempt 2 after %d", attempt, next, want[2])
	}
}

// TestObserverGapsAcrossAttempts drives the gap derivation through the
// job table's own transitions, with no run behind them: a jump in the
// steps is a gap, a restart at step 0 after Running is none, and drops
// after an attempt's last delivery — which no jump shows — are reported
// from its report at Retrying and at the job's end.
func TestObserverGapsAcrossAttempts(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	defer srv.Close()
	const sid, eid = 1 << 30, 1 << 30 // far from the stream's own ids
	job := sched.Job{Name: "attempts", Until: 1}
	e := srv.newEntry(&job, catalog.JobSpec{Scenario: "landau"}, "", 0, time.Now(), 0)
	srv.mu.Lock()
	e.id, e.sid = eid, sid
	srv.jobs[eid], srv.byStream[sid] = e, eid
	dropped0 := srv.sseDropped
	srv.mu.Unlock()

	var d runner.Diagnostics
	srv.onUpdate(sched.Update{ID: sid, Status: sched.Running, Attempt: 1})
	srv.observe(e, 0, d)
	srv.observe(e, 3, d) // steps 1 and 2 dropped
	srv.observe(e, 4, d)
	srv.onUpdate(sched.Update{ID: sid, Status: sched.Retrying, Attempt: 1,
		Report: &runner.Report{Steps: 7, DroppedObservations: 4}}) // 5 and 6 trail
	srv.onUpdate(sched.Update{ID: sid, Status: sched.Running, Attempt: 2})
	srv.observe(e, 0, d)
	srv.observe(e, 1, d)
	srv.finish(sched.Update{ID: sid, Name: job.Name, Status: sched.Done, Attempt: 2,
		Report: &runner.Report{Steps: 3, DroppedObservations: 1}}) // 2 trails

	srv.mu.Lock()
	evs, _ := e.ring.since(0)
	dropped := srv.sseDropped - dropped0
	srv.mu.Unlock()
	var got []string
	for _, ev := range evs {
		var body map[string]any
		if err := json.Unmarshal(ev.data, &body); err != nil {
			t.Fatal(err)
		}
		switch ev.typ {
		case "diag":
			got = append(got, fmt.Sprintf("diag %v", body["step"]))
		case "gap":
			got = append(got, fmt.Sprintf("gap %v %v", body["missed"], body["source"]))
		case "status":
			got = append(got, fmt.Sprintf("%v %v", body["status"], body["attempt"]))
		default:
			got = append(got, ev.typ)
		}
	}
	want := []string{
		"running 1", "diag 0", "gap 2 observer", "diag 3", "diag 4", "gap 2 observer", "retrying 1",
		"running 2", "diag 0", "diag 1", "gap 1 observer", "done 2", "done",
	}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Fatalf("events\n got %v\nwant %v", got, want)
	}
	if dropped != 5 {
		t.Fatalf("vlasovd_sse_dropped_total rose by %d, want 5", dropped)
	}
}
