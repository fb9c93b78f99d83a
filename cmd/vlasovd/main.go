// Command vlasovd is the simulation daemon: the always-on form of the
// repository's solver stack. It serves the HTTP control plane
// (internal/serve) over a long-lived streaming scheduler, so every
// scenario in the catalog — the plasma validation problems, the hybrid
// Vlasov/N-body runs, the control baselines — becomes remotely
// submittable as a JSON spec instead of a hand-launched binary.
//
//	vlasovd -addr :8080 -budget 8 -ckpt-dir /var/lib/vlasovd/ckpts \
//	        -store-dir /var/lib/vlasovd/store -keys /etc/vlasovd/keys.json
//
// Quickstart against a running daemon (drop the -H line when no -keys):
//
//	curl -s -H 'Authorization: Bearer <key>' localhost:8080/v1/scenarios | jq .
//	curl -s -H 'Authorization: Bearer <key>' -X POST localhost:8080/v1/jobs \
//	     -d '{"scenario":"landau","params":{"nx":64,"nv":128}}'
//	curl -s -H 'Authorization: Bearer <key>' localhost:8080/v1/jobs/0 | jq .
//	curl -N -H 'Authorization: Bearer <key>' localhost:8080/v1/jobs/0/diagnostics
//	curl -N -H 'Authorization: Bearer <key>' -H 'Last-Event-ID: 42' \
//	     localhost:8080/v1/jobs/0/diagnostics     # resume, replaying events 43+
//	curl -s -H 'Authorization: Bearer <key>' localhost:8080/v1/jobs/0/checkpoints | jq .
//	curl -s -H 'Authorization: Bearer <key>' localhost:8080/v1/jobs/0/trace | jq .
//	curl -s -H 'Authorization: Bearer <key>' 'localhost:8080/v1/jobs?archived=1' | jq .
//	curl -s localhost:8080/metrics                        # unauthenticated
//
// Every job carries a lifecycle trace — admission, queue wait, dispatch
// attempts, running segments, checkpoint writes — served live at
// /v1/jobs/{id}/trace and archived into the artifact index at terminal
// time; the newest 256 spans of each job are kept. The same measurements
// feed the latency histograms on /metrics. Admin tenants get runtime
// profiles at /v1/admin/pprof/ (heap, profile, goroutine, trace, …).
//
// SIGTERM/SIGINT starts the graceful drain: intake stops (submissions get
// 503 with Retry-After), queued and running jobs finish — checkpointing on
// their cadence — until -drain expires, then the remainder is cancelled
// through the scheduler and every result is flushed before exit.
//
// SIGHUP hot-reloads the -keys file: new keys and quotas apply to the next
// request, running jobs keep their admitted tenant identity, and a file
// that fails validation is rejected wholesale (the old keys stay live).
// Admin tenants can trigger the same reload with POST /v1/admin/reload.
//
// With -store-dir the daemon is durable: every submission's lifecycle is
// journaled, and a restart — graceful OR a straight SIGKILL — replays the
// journal, re-queues every unfinished job under its original id, and
// resumes it from its newest checkpoint (with -ckpt-dir). With -keys the
// /v1 surface requires bearer keys and enforces the per-tenant quotas the
// key file declares; see internal/tenant for the file format.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vlasov6d/internal/catalog"
	"vlasov6d/internal/serve"
	"vlasov6d/internal/tenant"
)

// Edge timeouts. A client that opens a connection and never finishes its
// request headers (slowloris) is dropped, and keep-alive connections are
// reaped when idle. No write timeout: the SSE diagnostics stream and the
// 30 s pprof profile are long-lived responses by design.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vlasovd: ")
	var (
		addr      = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers   = flag.Int("workers", 0, "scheduler worker pool size (0 = GOMAXPROCS)")
		budget    = flag.Int("budget", 0, "CPU core budget divided among live jobs (0 = no budget; the machine's core count gives the paper's fixed-partition accounting)")
		ckptDir   = flag.String("ckpt-dir", "", "per-job checkpoint root (empty disables checkpointing and resume)")
		ckptEvery = flag.Int("ckpt-every", 25, "checkpoint cadence in steps (with -ckpt-dir)")
		retries   = flag.Int("retries", 1, "default extra attempts per job after a transient failure (specs may override)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGTERM before running jobs are cancelled")
		storeDir  = flag.String("store-dir", "", "durable job-journal directory (empty = in-memory only; with it, restarts recover unfinished jobs)")
		keys      = flag.String("keys", "", "tenant key file enabling bearer-key auth and per-tenant quotas (empty = open access; SIGHUP or POST /v1/admin/reload re-reads it live)")
		diagRing  = flag.Int("diag-ring", 0, "per-job diagnostics replay ring size (0 = 512): how far back an SSE client can resume with Last-Event-ID before hitting an explicit gap")
		compactN  = flag.Int("journal-compact-records", 0, "journal record count that triggers online compaction (0 = 4096 default, negative disables; the journal also compacts past 1 MiB)")
	)
	flag.Parse()

	var reg *tenant.Registry
	if *keys != "" {
		var err error
		if reg, err = tenant.Load(*keys); err != nil {
			log.Fatal(err)
		}
		log.Printf("tenancy on: %d tenants from %s", len(reg.Tenants()), *keys)
	}

	srv, err := serve.New(context.Background(), serve.Config{
		Catalog:               catalog.Default(),
		Workers:               *workers,
		Budget:                *budget,
		CheckpointDir:         *ckptDir,
		CheckpointEvery:       *ckptEvery,
		Retries:               *retries,
		RingSize:              *diagRing,
		StoreDir:              *storeDir,
		Tenants:               reg,
		KeysPath:              *keys,
		JournalCompactRecords: *compactN,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	log.Printf("listening on %s (budget %d cores, checkpoint dir %q, store dir %q)",
		ln.Addr(), *budget, *ckptDir, *storeDir)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt, syscall.SIGHUP)
loop:
	for {
		select {
		case s := <-sig:
			if s == syscall.SIGHUP {
				// Hot key reload: re-read -keys and swap the registry whole.
				// A file that fails validation is rejected wholesale — the
				// old keys keep working, the daemon keeps running.
				if *keys == "" {
					log.Printf("SIGHUP: no -keys file to reload")
					continue
				}
				if n, err := srv.ReloadKeys(); err != nil {
					log.Printf("SIGHUP: key file rejected, previous keys stay live: %v", err)
				} else {
					log.Printf("SIGHUP: key file reloaded, %d tenants live", n)
				}
				continue
			}
			log.Printf("%v: draining (budget %v)", s, *drain)
			break loop
		case err := <-errCh:
			log.Fatalf("http server: %v", err)
		}
	}

	// Graceful drain: scheduler first (stop intake, let work finish or
	// checkpoint, flush results), then the HTTP listener — SSE watchers
	// receive their terminal events before the sockets close.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain deadline hit, remaining jobs cancelled: %v", err)
	} else {
		log.Printf("drained clean")
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
}
