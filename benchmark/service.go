package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vlasov6d/internal/catalog"
	"vlasov6d/internal/obs"
	"vlasov6d/internal/serve"
	"vlasov6d/internal/store"
	"vlasov6d/internal/tenant"
)

// serviceShape fixes the service workload: a closed loop of two clients,
// one per tenant, each submitting a two-step Landau job, following its
// event stream to "done" and reading its status back. The solver is a small
// part of a job, so the control plane does the work.
type serviceShape struct {
	clients   int
	rssJobs   int // peak_rss_mb is read when the daemon has finished this many jobs
	preseeded int // finished jobs in the journal the server boots over
	history   int // terminal jobs the server retains in memory
	traceNth  int // traced phase: fetch the server's spans for every n-th job
	probeJobs int // jobs journalled by the store probe
}

func newServiceShape(e *env) serviceShape {
	s := serviceShape{clients: 2, rssJobs: 4000, preseeded: 4096, history: 512, traceNth: 20, probeJobs: 1024}
	if e.smoke {
		s.rssJobs, s.preseeded, s.history, s.traceNth, s.probeJobs = 20, 16, 8, 2, 16
	}
	return s
}

// The job every cycle submits: a small Landau problem stepped twice, so the
// solver is a small share of the job.
const (
	jobNX, jobNV = 32, 64
	jobSteps     = 2
)

// serviceTailP is the workload's tail percentile: thousands of jobs in a
// phase leave p90 with hundreds of samples beyond it (and p99 with tens,
// reported beside it as serve.job_ms_p99).
const serviceTailP = 90

var tenantKeys = []string{"bench-key-alpha", "bench-key-beta"}

// prepareService writes what exists before the daemon starts: the key file
// (two tenants, unlimited quotas) and a journal of finished jobs.
func prepareService(e *env, sh serviceShape) (keys, seedDir string, err error) {
	keys = filepath.Join(e.dir, "keys.json")
	doc := fmt.Sprintf(`{"tenants":[{"name":"alpha","key":%q},{"name":"beta","key":%q}]}`,
		tenantKeys[0], tenantKeys[1])
	if err = os.WriteFile(keys, []byte(doc), 0o600); err != nil {
		return
	}
	seedDir = filepath.Join(e.dir, "journal-seed")
	st, err := store.Open(seedDir)
	if err != nil {
		return
	}
	defer st.Close()
	_, err = journalJobs(st, sh.preseeded)
	return
}

// journalJobs appends the three lifecycle records of n finished jobs and
// returns each append's duration.
func journalJobs(st *store.Store, n int) ([]time.Duration, error) {
	spec := json.RawMessage(`{"scenario":"landau","params":{"nv":64,"nx":32},"max_steps":2}`)
	ds := make([]time.Duration, 0, 3*n)
	for i := 0; i < n; i++ {
		id := st.NextID()
		for _, op := range []func() error{
			func() error { return st.Submitted(id, "alpha", spec, time.Now()) },
			func() error { return st.Started(id, 1) },
			func() error { return st.Terminal(id, "done", "") },
		} {
			t0 := time.Now()
			if err := op(); err != nil {
				return nil, err
			}
			ds = append(ds, time.Since(t0))
		}
	}
	return ds, nil
}

func copyFile(dst, src string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// serviceInst is a booted daemon behind loopback HTTP.
type serviceInst struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	boot   time.Duration
	// The daemon keeps every finished job in its in-memory index, so its
	// memory grows with the jobs done, and a run that measures for a fixed
	// time does more or fewer of them. finished counts the jobs done since
	// boot; rssMB holds VmHWM as read when the count reached rssJobs.
	finished *atomic.Int64
	rssMB    *atomic.Uint64 // math.Float64bits
}

func (s serviceInst) close() {
	if s.ts == nil {
		return
	}
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// setupService is construction to the first timed op: load the key file,
// boot serve.New over a copy of the pre-seeded journal (replay plus boot
// compaction), mount the handler and answer the first /healthz.
func setupService(e *env, sh serviceShape, keys, seedDir string, rep int) (serviceInst, error) {
	root := filepath.Join(e.dir, fmt.Sprintf("daemon-%d", rep))
	storeDir := filepath.Join(root, "store")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return serviceInst{}, err
	}
	const journal = "journal.v6dj"
	if err := copyFile(filepath.Join(storeDir, journal), filepath.Join(seedDir, journal)); err != nil {
		return serviceInst{}, err
	}
	t0 := time.Now()
	reg, err := tenant.Load(keys)
	if err != nil {
		return serviceInst{}, err
	}
	srv, err := serve.New(context.Background(), serve.Config{
		Catalog:       catalog.Default(),
		Workers:       2,
		Budget:        2,
		StoreDir:      storeDir,
		CheckpointDir: filepath.Join(root, "ckpt"),
		History:       sh.history,
		Tenants:       reg,
		KeysPath:      keys,
	})
	if err != nil {
		return serviceInst{}, err
	}
	boot := time.Since(t0)
	inst := serviceInst{srv: srv, boot: boot, ts: httptest.NewServer(srv.Handler()),
		finished: new(atomic.Int64), rssMB: new(atomic.Uint64),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * sh.clients}}}
	resp, err := inst.client.Get(inst.ts.URL + "/healthz")
	if err != nil {
		inst.close()
		return serviceInst{}, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		inst.close()
		return serviceInst{}, fmt.Errorf("healthz: %s", resp.Status)
	}
	return inst, nil
}

// serviceSamples is what the clients measured in one phase.
type serviceSamples struct {
	job, submit, firstEvent []time.Duration
	status, list, scrape    []time.Duration
	server                  map[string][]time.Duration // the server's own spans of sampled jobs, by name
	events, gaps            int
	wall                    time.Duration
}

// merge adds another phase's (or client's) samples and wall-clock.
func (s *serviceSamples) merge(o *serviceSamples) {
	s.job = append(s.job, o.job...)
	s.submit = append(s.submit, o.submit...)
	s.firstEvent = append(s.firstEvent, o.firstEvent...)
	s.status = append(s.status, o.status...)
	s.list = append(s.list, o.list...)
	s.scrape = append(s.scrape, o.scrape...)
	if s.server == nil {
		s.server = make(map[string][]time.Duration)
	}
	for name, ds := range o.server {
		s.server[name] = append(s.server[name], ds...)
	}
	s.events += o.events
	s.gaps += o.gaps
	s.wall += o.wall
}

func (s *serviceSamples) reads() []time.Duration {
	return append(append(append([]time.Duration(nil), s.status...), s.list...), s.scrape...)
}

// client is one closed-loop caller.
type client struct {
	e    *env
	inst serviceInst
	key  string
	rec  *recorder
	out  serviceSamples
}

func (c *client) get(path string, into any) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, c.inst.ts.URL+path, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+c.key)
	t0 := time.Now()
	resp, err := c.inst.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if into != nil {
		return d, json.Unmarshal(body, into)
	}
	return d, nil
}

// statusDoc is the part of a job's status document the checks read.
type statusDoc struct {
	Status string `json:"status"`
	Report *struct {
		Steps int `json:"steps"`
	} `json:"report"`
}

// cycle submits one job, follows its event stream to "done" and reads its
// status back; extraReads adds a listing and a metrics scrape.
func (c *client) cycle(name string, extraReads, fetchTrace bool) error {
	spec := fmt.Sprintf(`{"scenario":"landau","name":%q,"params":{"nx":%d,"nv":%d},"max_steps":%d}`,
		name, jobNX, jobNV, jobSteps)
	req, err := http.NewRequest(http.MethodPost, c.inst.ts.URL+"/v1/jobs", strings.NewReader(spec))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+c.key)
	jobID := c.rec.reserve()
	t0 := time.Now()
	resp, err := c.inst.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tSubmit := time.Now()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		c.e.chk.ok(false, "POST %s: %s: %s", name, resp.Status, bytes.TrimSpace(body))
		return nil
	}
	var accepted struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		return err
	}
	c.rec.add(name, "client.submit", jobID, t0, tSubmit)

	// Follow the SSE stream to the terminal event.
	path := fmt.Sprintf("/v1/jobs/%d", accepted.ID)
	sreq, err := http.NewRequest(http.MethodGet, c.inst.ts.URL+path+"/diagnostics", nil)
	if err != nil {
		return err
	}
	sreq.Header.Set("Authorization", "Bearer "+c.key)
	sresp, err := c.inst.client.Do(sreq)
	if err != nil {
		return err
	}
	var done statusDoc
	var tFirst, tDone time.Time
	diags, gaps, events := 0, 0, 0
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	typ := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			events++
			switch typ {
			case "diag":
				if diags == 0 {
					tFirst = time.Now()
				}
				diags++
			case "gap":
				gaps++
			case "done":
				tDone = time.Now()
				if err := json.Unmarshal([]byte(line[len("data: "):]), &done); err != nil {
					sresp.Body.Close()
					return err
				}
			}
		}
	}
	sresp.Body.Close()
	if err := sc.Err(); err != nil {
		return err
	}
	ok := !tDone.IsZero() && done.Status == "done" && done.Report != nil && done.Report.Steps == jobSteps &&
		diags >= 1 && gaps == 0
	c.e.chk.ok(ok, "job %s: done=%v status=%q report=%+v diags=%d gaps=%d",
		name, !tDone.IsZero(), done.Status, done.Report, diags, gaps)
	if !ok {
		return nil
	}
	c.rec.add(name, "client.stream", jobID, tSubmit, tDone)
	c.out.submit = append(c.out.submit, tSubmit.Sub(t0))
	c.out.firstEvent = append(c.out.firstEvent, tFirst.Sub(t0))
	c.out.job = append(c.out.job, tDone.Sub(t0))
	c.out.events += events
	c.out.gaps += gaps

	// Reads issued while the other client writes.
	tRead := time.Now()
	var st statusDoc
	d, err := c.get(path, &st)
	if err != nil {
		return err
	}
	c.e.chk.ok(st.Status == "done", "GET %s: status %q", path, st.Status)
	c.out.status = append(c.out.status, d)
	if extraReads {
		if d, err = c.get("/v1/jobs", nil); err != nil {
			return err
		}
		c.out.list = append(c.out.list, d)
		if d, err = c.get("/metrics", nil); err != nil {
			return err
		}
		c.out.scrape = append(c.out.scrape, d)
	}
	end := time.Now()
	c.rec.add(name, "client.read", jobID, tRead, end)
	c.rec.addAs(jobID, name, "client.job", 0, t0, end)

	if fetchTrace {
		// The server's own account of the same job, recorded beside the
		// client's spans.
		var doc struct {
			Spans []obs.Span `json:"spans"`
		}
		if _, err := c.get(path+"/trace", &doc); err != nil {
			return err
		}
		for _, sp := range doc.Spans {
			if sp.EndUnixNano == 0 {
				continue
			}
			start, end := time.Unix(0, sp.StartUnixNano), time.Unix(0, sp.EndUnixNano)
			c.rec.add(name, "serve."+sp.Name, jobID, start, end)
			if c.out.server == nil {
				c.out.server = make(map[string][]time.Duration)
			}
			c.out.server[sp.Name] = append(c.out.server[sp.Name], end.Sub(start))
		}
	}
	return nil
}

// timedServiceLoad runs the closed loop for d. Job names are unique per
// seed, phase, client and cycle: equal names would conflict while live and
// resume from the earlier job's checkpoint afterwards, skipping the work
// being timed. With a recorder the clients record spans and sample the
// server's traces.
func timedServiceLoad(e *env, sh serviceShape, inst serviceInst, d time.Duration, tag string, rec *recorder) (serviceSamples, error) {
	clients := make([]*client, sh.clients)
	errs := make([]error, sh.clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for k := range clients {
		c := &client{e: e, inst: inst, key: tenantKeys[k%len(tenantKeys)], rec: rec}
		clients[k] = c
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// The read schedule comes from the seed: about one cycle in ten
			// also lists the tenant's jobs and scrapes /metrics.
			rng := rand.New(rand.NewSource(e.seed*31 + int64(k)))
			for i := 0; time.Now().Before(deadline); i++ {
				name := fmt.Sprintf("s%d-%s-c%d-%06d", e.seed, tag, k, i)
				fetch := rec != nil && i%sh.traceNth == 0
				if err := c.cycle(name, rng.Intn(10) == 0, fetch); err != nil {
					errs[k] = err
					return
				}
				if inst.finished.Add(1) == int64(sh.rssJobs) {
					inst.rssMB.Store(math.Float64bits(peakRSSMB()))
				}
			}
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)
	var all serviceSamples
	for k, c := range clients {
		if errs[k] != nil {
			return all, errs[k]
		}
		all.merge(&c.out) // a client's samples carry no wall-clock of their own
	}
	all.wall = wall
	return all, nil
}

// runService is the service_jobs workload.
func runService(e *env) error {
	sh := newServiceShape(e)
	keys, seedDir, err := prepareService(e, sh)
	if err != nil {
		return err
	}
	inst, setups, err := repeatSetup(5, 25, time.Second,
		func(rep int) (serviceInst, error) { return setupService(e, sh, keys, seedDir, rep) },
		serviceInst.close)
	if err != nil {
		return err
	}
	defer inst.close()

	// Warm-up, untimed: the first seconds of a fresh daemon run slower
	// (small heap, frequent GC; empty history), and a run should measure the
	// daemon a client meets, not its first breath.
	if _, err := timedServiceLoad(e, sh, inst, e.seconds/8, "warm", nil); err != nil {
		return err
	}
	if !e.trace {
		s, err := timedServiceLoad(e, sh, inst, e.seconds, "timed", nil)
		if err != nil {
			return err
		}
		e.reportEndToEnd(setups, opStats{ops: s.job, wall: s.wall}, serviceTailP)
		if rss := math.Float64frombits(inst.rssMB.Load()); rss > 0 {
			e.set(endToEnd, "peak_rss_mb", rss, sh.rssJobs)
		} else {
			fmt.Printf("peak_rss_mb read at the end: only %d of %d jobs finished\n", inst.finished.Load(), sh.rssJobs)
		}
		return nil
	}

	// Untraced and traced slices alternate, so that the slow drift of the
	// disk's fsync latency falls on both sides of the overhead comparison.
	const slices = 3
	var untraced, s serviceSamples
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < slices; i++ {
		u, err := timedServiceLoad(e, sh, inst, e.seconds/(3*slices), fmt.Sprintf("untraced%d", i), nil)
		if err != nil {
			return err
		}
		untraced.merge(&u)
		t, err := timedServiceLoad(e, sh, inst, e.seconds/(3*slices), fmt.Sprintf("traced%d", i), e.rec)
		if err != nil {
			return err
		}
		s.merge(&t)
	}
	runtime.ReadMemStats(&after)
	e.runtimeDeltas(&before, &after, len(untraced.job)+len(s.job))
	e.traceOverhead(opStats{ops: untraced.job}, opStats{ops: s.job})
	e.reportBenchOps(opStats{ops: untraced.job, wall: untraced.wall}, serviceTailP)

	jobMS, subMS := durMS(s.job), durMS(s.submit)
	e.layer("serve.job_ms_p50", median(jobMS), len(jobMS))
	e.layer("serve.job_ms_p90", percentile(jobMS, 90), len(jobMS))
	e.layer("serve.job_ms_p99", percentile(jobMS, 99), len(jobMS))
	e.layer("serve.submit_ms_p50", median(subMS), len(subMS))
	e.layer("serve.submit_ms_p90", percentile(subMS, 90), len(subMS))
	e.layer("serve.submit_ms_p99", percentile(subMS, 99), len(subMS))
	e.layerDurs("serve.first_event_ms_p50", s.firstEvent)
	e.layerDurs("serve.read_ms_p50", s.reads())
	e.layerDurs("serve.status_ms_p50", s.status)
	e.layerDurs("serve.list_ms_p50", s.list)
	e.layerDurs("serve.metrics_scrape_ms_p50", s.scrape)
	for _, name := range []string{"admission", "queue", "dispatch", "run"} {
		e.layerDurs("serve."+name+"_ms_p50", s.server[name])
	}
	e.layer("serve.sse_events_per_s", float64(s.events)/s.wall.Seconds(), s.events)
	e.layer("serve.sse_gap_events", float64(s.gaps), s.events)
	e.layer("serve.boot_ms", ms(inst.boot), 1)
	if err := probeStore(e, sh); err != nil {
		return err
	}
	if err := probeControlPlane(e, keys); err != nil {
		return err
	}
	if err := probeSched(e); err != nil {
		return err
	}
	// The solver's share of a job: the job's grid stepped jobSteps times.
	job := newLandauShape(e)
	job.nx, job.nv = jobNX, jobNV
	step, err := probePlasma(e, job)
	if err != nil {
		return err
	}
	e.layer("plasma.step_us_p50", us(step), 1)
	if j := medianDur(s.job); j > 0 {
		// The share of a job's latency that is not the solver stepping.
		// (serve.run_ms_p50 is no substitute: the server's run span also
		// holds the lease wait, the solver build and the journal's
		// "started" fsync.)
		e.layer("serve.control_plane_frac", 1-float64(jobSteps*step)/float64(j), len(s.job))
	}
	return nil
}

// probeStore times the durable layer on its own: journal appends, boot
// replay, compaction, and the two sibling logs.
func probeStore(e *env, sh serviceShape) error {
	dir := filepath.Join(e.dir, "store-probe")
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	t0 := time.Now()
	ds, err := journalJobs(st, sh.probeJobs)
	if err != nil {
		return err
	}
	e.layerDurs("store.append_ms_p50", ds)
	e.layer("store.appends_per_s", float64(len(ds))/time.Since(t0).Seconds(), len(ds))
	e.layer("store.journal_bytes_per_job", float64(st.Size())/float64(sh.probeJobs), sh.probeJobs)

	// Replay is timed on a copy, because compacting drops the records.
	replayDir := filepath.Join(e.dir, "store-replay")
	if err := os.MkdirAll(replayDir, 0o755); err != nil {
		return err
	}
	const journal = "journal.v6dj"
	if err := copyFile(filepath.Join(replayDir, journal), filepath.Join(dir, journal)); err != nil {
		return err
	}
	t0 = time.Now()
	if err := st.Compact(); err != nil {
		return err
	}
	e.layer("store.compact_ms", ms(time.Since(t0)), 1)
	t0 = time.Now()
	st2, err := store.Open(replayDir)
	if err != nil {
		return err
	}
	e.layer("store.replay_ms", ms(time.Since(t0)), 1)
	st2.Close()

	ix, err := store.OpenIndex(dir)
	if err != nil {
		return err
	}
	defer ix.Close()
	n := 0
	ds, err = timeReps(sh.probeJobs/4, func() error {
		n++
		return ix.Put(store.IndexEntry{ID: n, Tenant: "alpha", Name: fmt.Sprintf("probe-%d", n),
			Scenario: "landau", Status: "done", Report: &store.ReportSummary{Steps: 2}})
	})
	if err != nil {
		return err
	}
	e.layerDurs("store.index_put_ms_p50", ds)
	au, err := store.OpenAudit(dir)
	if err != nil {
		return err
	}
	defer au.Close()
	ds, err = timeReps(sh.probeJobs/4, func() error {
		return au.Append(store.AuditRecord{UnixNano: time.Now().UnixNano(), Tenant: "alpha", Outcome: "accept", JobID: n})
	})
	if err != nil {
		return err
	}
	e.layerDurs("store.audit_append_ms_p50", ds)
	return nil
}

// probeControlPlane times what a submission pays before it reaches the
// journal — key lookup and spec resolution — and the cost of one
// observation in the tracer and the histogram.
func probeControlPlane(e *env, keys string) error {
	n := 2000
	if e.smoke {
		n = 50
	}
	cat := catalog.Default()
	spec := catalog.JobSpec{Scenario: "landau", Name: "probe",
		Params: map[string]any{"nx": jobNX, "nv": jobNV}, MaxSteps: jobSteps}
	ds, err := timeReps(n, func() error { _, err := cat.Job(spec); return err })
	if err != nil {
		return err
	}
	e.layerDurs("catalog.resolve_us_p50", ds)
	reg, err := tenant.Load(keys)
	if err != nil {
		return err
	}
	ds, err = timeReps(n, func() error {
		tn, ok := reg.Lookup(tenantKeys[1])
		if !ok {
			return fmt.Errorf("tenant lookup missed")
		}
		tn.Allow(time.Now())
		return nil
	})
	if err != nil {
		return err
	}
	e.layerDurs("tenant.lookup_us_p50", ds)

	loops := 100 * n
	tr := obs.NewTrace(0)
	now := time.Now()
	t0 := time.Now()
	for i := 0; i < loops; i++ {
		tr.Observe("probe", now, now, nil)
	}
	e.layer("obs.trace_observe_ns", float64(time.Since(t0))/float64(loops), loops)
	h := obs.NewHistogram("probe", "probe", obs.DurationBuckets())
	t0 = time.Now()
	for i := 0; i < loops; i++ {
		h.Observe(float64(i%1000) * 1e-4)
	}
	e.layer("obs.hist_observe_ns", float64(time.Since(t0))/float64(loops), loops)
	return nil
}
