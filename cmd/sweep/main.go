// Command sweep runs a parameter-sweep campaign — the batch-scheduler
// counterpart of the single-run vlasov6d binary. The default sweep is a
// scheme × resolution grid of Landau-damping validation runs: every
// advection scheme at every phase-space resolution is driven through one
// RunBatch call over the scheduler's shared worker pool, each job measures its own
// damping rate from the field-energy peaks (delivered through the async
// observer pipeline, off the job's step loop), and the final table compares
// every cell of the grid against the kinetic-theory rate from the plasma
// dispersion function.
//
// Small grids carry higher priority so the table fills coarse-to-fine, transient failures retry with backoff (-retries),
// and with -resume-dir every job checkpoints into its own directory and a
// re-invoked sweep resumes each job from its newest snapshot — kill a
// campaign with Ctrl-C and run the same command again to continue it
// instead of recomputing.
//
// Example:
//
//	sweep -schemes slmpp5,mp5,upwind1 -res 32x64,64x128 -workers 4 \
//	      -budget 8 -wall 2m -resume-dir /tmp/sweep-ckpts -retries 2
//
// With -budget the scheduler owns intra-step parallelism: the given core
// count is divided among the live jobs (floor one, remainder to the
// higher-priority cells) and rebalanced as the queue drains, so job-level
// and cell-level parallelism compose to the machine instead of
// oversubscribing it N-fold.
//
// Job status transitions stream as they happen (running → done/failed,
// with attempt counts and the queued depth), so a long sweep is observable
// while it runs; the pool shares one wall-clock budget, and Ctrl-C cancels
// running jobs and skips queued ones.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"vlasov6d"
	"vlasov6d/internal/analysis"
)

// cell is one point of the scheme × resolution grid plus the damping-rate
// fit its observer accumulates. Each cell's observer runs on its own job's
// async pipeline goroutine, so the fields need no locking.
type cell struct {
	scheme string
	nx, nv int
	fit    analysis.DecayFit
}

func (c *cell) name() string { return fmt.Sprintf("%s@%dx%d", c.scheme, c.nx, c.nv) }

// observe feeds the field energy to the damping-rate fit. It rides the
// async observer pipeline: the job's step loop only enqueues diagnostics
// snapshots.
func (c *cell) observe(step int, d vlasov6d.RunDiagnostics) error {
	c.fit.Add(d.Time, d.Extra["field_energy"])
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the command: it parses args, runs the sweep and writes the table
// to stdout (per-job status lines go to the log).
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		schemes    = fs.String("schemes", "slmpp5,mp5,upwind1", "comma-separated x-drift advection schemes")
		res        = fs.String("res", "32x64,64x128", "comma-separated NXxNV phase-space resolutions")
		k          = fs.Float64("k", 0.5, "perturbation wavenumber (Debye-length units)")
		alpha      = fs.Float64("alpha", 0.01, "perturbation amplitude")
		until      = fs.Float64("until", 25, "integration time ω_p·t")
		workers    = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		budget     = fs.Int("budget", 0, "CPU core budget divided among live jobs, rebalanced as the queue drains; 0 disables (every job then runs GOMAXPROCS intra-step workers and an N-job pool oversubscribes the machine N-fold). -budget with the machine's core count is the paper's fixed-partition accounting.")
		wall       = fs.Duration("wall", 0, "shared wall-clock budget for the whole sweep (0 = unlimited)")
		resumeDir  = fs.String("resume-dir", "", "per-job checkpoint root; a re-invoked sweep resumes each job from its newest snapshot")
		retries    = fs.Int("retries", 0, "extra attempts per job after a transient (retryable) failure")
		ckptEvery  = fs.Int("ckpt-every", 25, "checkpoint cadence in steps (with -resume-dir)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the whole sweep to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile at sweep end to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var grid []*cell
	for _, sc := range strings.Split(*schemes, ",") {
		sc = strings.TrimSpace(sc)
		if sc == "" {
			continue
		}
		for _, rs := range strings.Split(*res, ",") {
			nx, nv, err := parseRes(rs)
			if err != nil {
				return err
			}
			grid = append(grid, &cell{scheme: sc, nx: nx, nv: nv})
		}
	}
	if len(grid) == 0 {
		return errors.New("empty sweep: no schemes or resolutions")
	}

	theory := vlasov6d.LandauDampingRate(*k, 1)
	fmt.Fprintf(stdout, "Landau sweep: %d jobs (%s × %s), k·λ_D = %.2f, theory γ = %.4f\n",
		len(grid), *schemes, *res, *k, theory)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// depth counts the jobs no worker has picked up yet: a job leaves the
	// queue on its first update (attempt 1 starting, or cancelled at attempt
	// 0 without ever running). The notify callback is serialised, so the
	// counter needs no locking.
	depth := len(grid)
	opts := []vlasov6d.BatchOption{
		vlasov6d.WithBatchNotify(func(u vlasov6d.BatchUpdate) {
			if u.Status == vlasov6d.JobRunning && u.Attempt == 1 ||
				u.Status == vlasov6d.JobCancelled && u.Attempt == 0 {
				depth--
			}
			switch u.Status {
			case vlasov6d.JobRunning:
				log.Printf("%-18s running   (attempt %d, %d queued)", u.Name, u.Attempt, depth)
			case vlasov6d.JobRetrying:
				log.Printf("%-18s retrying  (attempt %d failed: %v)", u.Name, u.Attempt, u.Err)
			case vlasov6d.JobDone:
				log.Printf("%-18s done in %6.2fs (%d steps, attempt %d, stop: %v, %d queued)",
					u.Name, u.Report.Wall.Seconds(), u.Report.Steps, u.Attempt, u.Report.Reason, depth)
			case vlasov6d.JobFailed:
				log.Printf("%-18s FAILED after %d attempt(s): %v", u.Name, u.Attempt, u.Err)
			case vlasov6d.JobCancelled:
				log.Printf("%-18s cancelled", u.Name)
			}
		}),
		vlasov6d.WithBatchRetries(*retries),
	}
	if *workers > 0 {
		opts = append(opts, vlasov6d.WithBatchWorkers(*workers))
	}
	if *budget > 0 {
		opts = append(opts, vlasov6d.WithBatchCoreBudget(*budget))
	}
	if *wall > 0 {
		opts = append(opts, vlasov6d.WithBatchWallClock(*wall))
	}
	if *resumeDir != "" {
		opts = append(opts,
			vlasov6d.WithJobCheckpoints(*resumeDir),
			vlasov6d.WithJobCheckpointEvery(*ckptEvery))
	}

	jobs := make([]vlasov6d.BatchJob, len(grid))
	for i, c := range grid {
		job := vlasov6d.BatchJob{
			Name:  c.name(),
			Until: *until,
			// Smaller grids first: the table fills coarse-to-fine, so a
			// budgeted (or killed) sweep still delivers the cheap cells.
			Priority: -c.nx * c.nv,
			New: func() (vlasov6d.Solver, error) {
				// A retried attempt restarts the time series; the fit must
				// not mix it with the failed attempt's samples (DecayFit
				// requires monotone t).
				c.fit = analysis.DecayFit{}
				s, err := vlasov6d.NewPlasmaSolverWithScheme(c.nx, c.nv, 2*math.Pi/(*k), 8, c.scheme)
				if err != nil {
					return nil, err
				}
				s.LandauInit(*alpha, *k, 1)
				return s, nil
			},
			Opts: []vlasov6d.RunOption{
				vlasov6d.WithAsyncObserver(c.observe, vlasov6d.WithAsyncBuffer(256)),
			},
		}
		if *resumeDir != "" {
			job.Restore = func(path string) (vlasov6d.Solver, error) {
				// The fit state lives in this process, not the snapshot: a
				// resumed job refits γ over the remaining time window only
				// (resumed near the target it reports "—", never a number
				// fitted on a broken series).
				c.fit = analysis.DecayFit{}
				f, err := os.Open(path)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				s, err := vlasov6d.RestorePlasmaSolver(f)
				if err != nil {
					return nil, err
				}
				if s.NX != c.nx || s.NV != c.nv || s.Scheme() != c.scheme {
					return nil, fmt.Errorf("snapshot %s is %s@%dx%d, job wants %s",
						path, s.Scheme(), s.NX, s.NV, c.name())
				}
				return s, nil
			}
		}
		jobs[i] = job
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	start := time.Now()
	results, err := vlasov6d.RunBatch(ctx, jobs, opts...)
	if perr := stopProfiles(); perr != nil {
		return perr
	}
	if results == nil {
		// Invalid options or jobs; an interrupted sweep still returns every
		// result and prints its partial table below.
		return err
	}

	fmt.Fprintf(stdout, "\n%-12s %9s %10s %10s %8s %8s  %s\n",
		"scheme", "NX×NV", "γ fit", "γ theory", "err %", "attempt", "status")
	for i, c := range grid {
		r := results[i]
		label := fmt.Sprintf("%d×%d", c.nx, c.nv)
		if r.Status != vlasov6d.JobDone || c.fit.Peaks() < 3 {
			fmt.Fprintf(stdout, "%-12s %9s %10s %10.4f %8s %8d  %s\n",
				c.scheme, label, "—", theory, "—", r.Attempt, r.Status)
			continue
		}
		gamma := c.fit.Gamma()
		errPct := 100 * math.Abs(gamma-theory) / math.Abs(theory)
		fmt.Fprintf(stdout, "%-12s %9s %10.4f %10.4f %8.1f %8d  %s\n",
			c.scheme, label, gamma, theory, errPct, r.Attempt, r.Status)
	}
	fmt.Fprintf(stdout, "\nsweep finished in %.2fs wall\n", time.Since(start).Seconds())
	return ctx.Err()
}

// startProfiles starts a CPU profile (if requested) and returns a function
// that stops it and writes the heap profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile shows retained allocations
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// parseRes parses "NXxNV" (e.g. "64x128").
func parseRes(s string) (nx, nv int, err error) {
	parts := strings.Split(strings.TrimSpace(s), "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("resolution %q is not NXxNV", s)
	}
	if nx, err = strconv.Atoi(parts[0]); err != nil {
		return 0, 0, fmt.Errorf("resolution %q: %w", s, err)
	}
	if nv, err = strconv.Atoi(parts[1]); err != nil {
		return 0, 0, fmt.Errorf("resolution %q: %w", s, err)
	}
	return nx, nv, nil
}
