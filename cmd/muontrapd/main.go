// Command muontrapd serves the MuonTrap experiment service over HTTP:
// declarative sweep submission, per-cell progress streaming over SSE,
// cancellation, content-keyed result fetch, and crash-resume of
// interrupted jobs from their latest mid-run checkpoint. The wire format
// is documented in docs/API.md; muontrap/client is the Go client.
//
// Usage:
//
//	muontrapd -addr :7077
//	muontrapd -addr :7077 -checkpoint-every 5000000 -auto-resume
//	muontrapd -cache /shared/muontrap -workers 8 -max-jobs 2
//	muontrapd -tenants tenants.json -max-queue 64 -drain-timeout 30s
//	muontrapd -coordinator -addr :7070 -checkpoint-every 5000000
//	muontrapd -join http://coord:7070 -advertise http://me:7077 -checkpoint-every 5000000
//
// With -coordinator, the process serves no simulations itself: it shards
// each submitted sweep across the workers that -join it (same /v1/jobs
// API, so clients need not care which kind of process they talk to),
// re-dispatches cells from dead workers using their mirrored mid-run
// checkpoints, and steals cells from stragglers (-steal-after). A worker
// given -join registers with the coordinator, heartbeats, and mirrors
// its mid-run checkpoints into the coordinator's checkpoint store so any
// other machine can pick up its interrupted cells. The identity flags
// (-scale, -max-cycles, -warmup, -checkpoint-every) must match across
// the coordinator and every worker.
//
// With -tenants (a JSON array of {name, key, max_queued, max_running}),
// the daemon — or coordinator — requires an API key on every endpoint
// except /v1/healthz, /metrics and the worker-spoken /fleet/v1/*, and
// enforces per-tenant quotas; over-quota or over-capacity
// submissions are shed with 429/503 + Retry-After instead of queueing
// unboundedly. Interactive-priority jobs preempt running bulk sweeps
// (losslessly, via checkpoints) when every runner slot is busy.
//
// With a cache directory (the default uses the user cache dir), results
// are content-keyed on disk — resubmitting an identical sweep against
// the same simulator binary is answered without simulating — and the job
// journal survives restarts: jobs the previous daemon left unfinished
// surface as "interrupted". With -checkpoint-every N, their runs also
// persist mid-run checkpoints, so resuming (POST /v1/jobs/{id}/resume,
// or automatically with -auto-resume) restores each unfinished cell from
// its latest checkpoint instead of simulating from cold.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", ":7077", "listen address")
		cache      = flag.String("cache", "auto", `service/cache root directory; "auto" uses the user cache dir, "off" disables persistence (no restart-resume)`)
		workers    = flag.Int("workers", 0, "concurrent simulations per sweep (0 = GOMAXPROCS)")
		maxJobs    = flag.Int("max-jobs", 1, "concurrently executing sweeps; further submissions queue")
		scale      = flag.Float64("scale", 0, "default workload trip-count multiplier for sweeps that omit scales (0 = library default)")
		maxCycles  = flag.Int("max-cycles", 0, "default per-run cycle bound (0 = library default)")
		warmup     = flag.Int("warmup", 0, "instructions to fast-forward per workload before the measured region")
		ckptEvery  = flag.Int("checkpoint-every", 0, "drain + snapshot each run every N simulated cycles for crash-resume (0 = off)")
		autoResume = flag.Bool("auto-resume", false, "on startup, re-queue every interrupted journaled job with checkpoint resume")

		maxQueue     = flag.Int("max-queue", 0, "jobs waiting for a runner slot before submissions are shed with 503 (0 = unbounded)")
		tenantsFile  = flag.String("tenants", "", "JSON tenants file enabling API-key auth and per-tenant quotas (empty = open daemon)")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint attached to shed (429/503) responses")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "bound on graceful-shutdown job drain; on expiry still-running jobs are journaled interrupted and abandoned (0 = wait forever)")

		metricsOn = flag.Bool("metrics", false, "expose Prometheus metrics at /metrics and enable job/cell tracing and sim profiling")
		traceDir  = flag.String("trace-dir", "", `job/cell trace JSONL directory (default "<cache>/telemetry" with -metrics; "off" keeps the in-memory ring only)`)

		coordinator = flag.Bool("coordinator", false, "run as a fleet coordinator: shard submitted sweeps across joined workers instead of simulating locally")
		hbTimeout   = flag.Duration("heartbeat-timeout", 5*time.Second, "coordinator: mark a worker dead after this long without a heartbeat")
		stealAfter  = flag.Duration("steal-after", 0, "coordinator: speculatively re-dispatch a cell stuck on one worker for this long (0 = no stealing)")
		perWorker   = flag.Int("per-worker", 1, "coordinator: concurrently dispatched cells per worker")
		join        = flag.String("join", "", "worker: coordinator base URL to register with (e.g. http://coord:7070)")
		advertise   = flag.String("advertise", "", "worker: base URL the coordinator reaches this daemon at (required with -join)")
		hbInterval  = flag.Duration("heartbeat-interval", time.Second, "worker: heartbeat cadence")
	)
	flag.Parse()
	if *ckptEvery < 0 {
		fatal(errors.New("-checkpoint-every must be a positive cycle count (or 0 to disable)"))
	}
	var tenants []service.Tenant
	if *tenantsFile != "" {
		var err error
		if tenants, err = service.LoadTenants(*tenantsFile); err != nil {
			fatal(err)
		}
	}

	dir := ""
	switch *cache {
	case "off", "":
	case "auto":
		if base, err := os.UserCacheDir(); err == nil {
			dir = filepath.Join(base, "muontrapd")
		}
	default:
		dir = *cache
	}
	if *autoResume && dir == "" {
		fatal(errors.New("-auto-resume needs a cache directory (-cache) holding the journal and checkpoints"))
	}

	// Telemetry is strictly opt-in: without -metrics (or -trace-dir) the
	// daemon runs the exact pre-telemetry code paths — no registry, no
	// tracer, no sim profiling hooks installed.
	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	if *metricsOn || *traceDir != "" {
		if *metricsOn {
			reg = telemetry.NewRegistry()
			telemetry.EnableSimProfiling(reg)
		}
		td := *traceDir
		if td == "" && dir != "" {
			td = filepath.Join(dir, "telemetry")
		}
		if td == "off" {
			td = "" // ring-buffer tracing only, no JSONL file
		}
		var err error
		if tracer, err = telemetry.NewTracer(td); err != nil {
			fatal(err)
		}
		defer tracer.Close()
	}

	if *coordinator {
		if *join != "" {
			fatal(errors.New("-coordinator and -join are mutually exclusive: a process shards sweeps or runs them, not both"))
		}
		runCoordinator(*addr, *tenantsFile, fleet.Config{
			Config: service.Config{
				Dir:             dir,
				Tenants:         tenants,
				Scale:           *scale,
				MaxCycles:       *maxCycles,
				Warmup:          *warmup,
				CheckpointEvery: *ckptEvery,
				Metrics:         reg,
				Tracer:          tracer,
			},
			HeartbeatTimeout: *hbTimeout,
			StealAfter:       *stealAfter,
			PerWorker:        *perWorker,
		})
		return
	}

	// A fleet worker mirrors its mid-run checkpoints into the
	// coordinator's checkpoint store so any other machine can resume its
	// interrupted cells; the local half (when a cache directory exists)
	// keeps single-machine restart-resume working too.
	var snapStore checkpoint.ChainStore
	if *join != "" {
		if *advertise == "" {
			fatal(errors.New("-join needs -advertise: the base URL the coordinator reaches this daemon at"))
		}
		remote := checkpoint.NewHTTPStore(strings.TrimRight(*join, "/")+fleet.StorePath, nil)
		if dir != "" {
			local, err := checkpoint.NewStore(filepath.Join(dir, "snapshots"))
			if err != nil {
				fatal(err)
			}
			snapStore = &checkpoint.Mirror{Local: local, Remote: remote}
		} else {
			snapStore = remote
		}
	}

	srv, err := service.New(service.Config{
		Dir:             dir,
		Workers:         *workers,
		MaxJobs:         *maxJobs,
		MaxQueue:        *maxQueue,
		Tenants:         tenants,
		RetryAfter:      *retryAfter,
		Scale:           *scale,
		MaxCycles:       *maxCycles,
		Warmup:          *warmup,
		CheckpointEvery: *ckptEvery,
		SnapStore:       snapStore,
		Metrics:         reg,
		Tracer:          tracer,
	})
	if err != nil {
		fatal(err)
	}

	if interrupted := srv.InterruptedJobs(); len(interrupted) > 0 {
		fmt.Printf("muontrapd: %d interrupted job(s) in journal\n", len(interrupted))
		if *autoResume {
			for _, id := range interrupted {
				if _, err := srv.ResumeJob(id); err != nil {
					fmt.Fprintf(os.Stderr, "muontrapd: resuming %s: %v\n", id, err)
				} else {
					fmt.Printf("muontrapd: resumed %s\n", id)
				}
			}
		}
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reloadTenantsOnHUP(srv, *tenantsFile)

	// Register with the coordinator once we are (about to be) listening.
	// Registration is retried until it lands: the coordinator may come up
	// after its workers, and a worker that outlives a coordinator restart
	// re-registers from inside the agent's heartbeat loop.
	if *join != "" {
		name, _ := os.Hostname()
		if name == "" {
			name = "worker"
		}
		go func() {
			for {
				agent, err := fleet.StartAgent(fleet.AgentConfig{
					Coordinator: *join,
					Name:        name,
					BaseURL:     *advertise,
					Interval:    *hbInterval,
				})
				if err == nil {
					fmt.Printf("muontrapd: joined fleet at %s as %s\n", *join, agent.WorkerID())
					<-ctx.Done()
					agent.Close()
					return
				}
				fmt.Fprintf(os.Stderr, "muontrapd: %v (retrying)\n", err)
				select {
				case <-ctx.Done():
					return
				case <-time.After(time.Second):
				}
			}
		}()
	}

	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		// Stop accepting, then abort in-flight jobs. Their journal entries
		// keep the running state, so the next daemon sees them as
		// interrupted and can resume them from their checkpoints.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
		// Bound the job drain: cancelled simulations normally unwind
		// within one context-poll interval, but a wedged run must not
		// keep the process alive forever. On expiry the stragglers are
		// journaled as interrupted — still resumable by the next daemon —
		// and named here so the abandonment is visible in the logs.
		drainCtx := context.Background()
		if *drainTimeout > 0 {
			var cancelDrain context.CancelFunc
			drainCtx, cancelDrain = context.WithTimeout(drainCtx, *drainTimeout)
			defer cancelDrain()
		}
		if abandoned := srv.Shutdown(drainCtx); len(abandoned) > 0 {
			fmt.Fprintf(os.Stderr, "muontrapd: drain timeout (%s) expired; abandoned %d running job(s) as interrupted: %s\n",
				*drainTimeout, len(abandoned), strings.Join(abandoned, ", "))
		}
	}()

	fmt.Printf("muontrapd: listening on %s", *addr)
	if dir != "" {
		fmt.Printf(" (cache %s)", dir)
	}
	fmt.Println()
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	// ListenAndServe returns ErrServerClosed as soon as Shutdown begins;
	// wait for the connection drain and job unwind to finish rather than
	// exiting from under them (which would be a kill, not a shutdown).
	<-shutdownDone
}

// reloadTenantsOnHUP hot-reloads the tenants table of a daemon's — or a
// coordinator's — job plane on SIGHUP: keys rotate and quotas change
// without dropping running jobs or open streams. A reload that fails to
// parse or validate keeps the old table — a typo in tenants.json must
// never fail open (or closed) a live daemon. No file, no handler.
func reloadTenantsOnHUP(srv *service.Server, path string) {
	if path == "" {
		return
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := srv.ReloadTenantsFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "muontrapd: SIGHUP tenant reload failed, keeping previous table: %v\n", err)
			} else {
				fmt.Printf("muontrapd: SIGHUP reloaded tenants from %s\n", path)
			}
		}
	}()
}

// runCoordinator serves the fleet coordinator until interrupted. Its
// shutdown needs no job drain: every merged cell is in the result store
// before it is visible, so killing the process at any instant leaves
// jobs the next coordinator resumes without re-running a finished cell —
// coordinator crash-resume is a first-class path, not an afterthought.
func runCoordinator(addr, tenantsFile string, cfg fleet.Config) {
	co, err := fleet.New(cfg)
	if err != nil {
		fatal(err)
	}
	reloadTenantsOnHUP(co.Plane(), tenantsFile)
	httpSrv := &http.Server{Addr: addr, Handler: co}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
		co.Close()
	}()
	fmt.Printf("muontrapd: coordinating fleet on %s", addr)
	if cfg.Dir != "" {
		fmt.Printf(" (state %s)", cfg.Dir)
	}
	fmt.Println()
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-shutdownDone
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
