// Command campaignd runs fault-injection campaigns as a service: a
// durable job queue behind an HTTP API, sharing one mux with the
// observability endpoints (/metrics, /live, /runs).
//
//	campaignd -state /var/lib/campaignd -addr 127.0.0.1:8321
//
//	curl -X POST localhost:8321/jobs -d '{"bench":"gcc","trials":1000}'
//	curl localhost:8321/jobs/job-000001
//	curl localhost:8321/readyz
//
// Jobs queue up to -queue deep; beyond that, submissions are rejected
// with 429 + Retry-After (backpressure). Failed jobs retry with
// exponential backoff when the failure is transient; a workload failing
// permanently -breaker-threshold times in a row has its circuit breaker
// opened and submissions fail fast until the cool-down elapses.
//
// The daemon logs structured records (-log-format json|text, -log-level)
// where every line carries the request → job → shard → trial correlation
// chain, and keeps a bounded flight-recorder ring (-recorder) of recent
// events at Info and above, whatever the terminal level. The ring is
// served per job at /jobs/{id}/events, dumped to the state dir when a
// job fails permanently, and dumped to stderr on SIGQUIT.
//
// A wall-clock span tracer (-spans ring capacity, 0 disables) records
// each job's lifecycle phases — queue wait, attempt, golden run,
// per-shard execution, checkpoint writes, merge, persists — stamped with
// the same correlation chain. The retained spans are served per job at
// /jobs/{id}/trace (Chrome trace JSON, loadable in Perfetto) and rolled
// into a phase-budget report at /jobs/{id}/phases; span.* duration
// histograms land in /metrics. -span-file streams every completed span
// to a file as it flushes (.jsonl = JSON lines, .txt/.text = text); a
// Chrome trace file would hold a daemon's whole life of spans in memory
// until shutdown, so it is refused.
//
// Every job transition appends that job's record to the job log,
// <state>/jobs.jsonl, every program admission appends to
// <state>/programs/programs.jsonl, and each campaign checkpoints its
// completed trials under -state too; the jobs/ files, jobs.json or
// programs.json of an earlier daemon are migrated into the logs at
// boot. SIGTERM and SIGINT drain: in-flight campaigns
// get up to -drain to finish, then are cancelled — their checkpoints
// hold every completed trial — and the daemon exits 0. A restart (graceful or after a
// crash) re-queues unfinished jobs and resumes them from their
// watermarks; results are byte-identical to an uninterrupted run.
//
// # Fleet mode
//
// The daemon is always a fleet coordinator: each campaign is opened as
// a session whose contiguous trial ranges are leased to registered
// workers — remote campaignd processes started with
//
//	campaignd -worker -join http://coordinator:8321
//
// Workers register (POST /fleet/workers), heartbeat, poll for leases,
// execute each range on their own compiled copy of the campaign, and
// post the sealed shard back. Leases carry deadlines (-fleet-lease-ttl)
// and are reclaimed when they expire or when a worker misses
// -fleet-misses heartbeats; leases outstanding longer than
// -fleet-steal-after are work-stolen (duplicate grant, first complete
// wins, cross-validated). While no workers are live the coordinator
// runs pending ranges through the engine's own loop; they are not
// leases, so a workerless daemon is the single-process campaign — and
// every merged result is byte-identical to a single-node
// run regardless of how many workers served it or died mid-campaign.
// GET /fleet shows the worker and lease tables; /readyz reports fleet
// health (degraded when registered workers are lost).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/obs/span"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/tenant"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8321", "HTTP listen address (host:0 picks a free port)")
		state       = flag.String("state", "campaignd-state", "state directory: job store + campaign checkpoints")
		queue       = flag.Int("queue", 64, "queued-job bound; a full queue answers 429 + Retry-After")
		concurrency = flag.Int("concurrency", 1, "jobs run at once (campaigns parallelize internally)")
		attempts    = flag.Int("max-attempts", 3, "runs of one job before a transient failure becomes permanent")
		deadline    = flag.Duration("deadline", 10*time.Minute, "wall-time bound per attempt (0 = none); overruns retry from the checkpoint")
		drain       = flag.Duration("drain", 30*time.Second, "SIGTERM/SIGINT drain window before in-flight jobs are checkpointed for the next life")
		brThreshold = flag.Int("breaker-threshold", 3, "consecutive permanent failures that open a workload's circuit breaker")
		brCooldown  = flag.Duration("breaker-cooldown", time.Minute, "breaker open time before one probe job is admitted")
		logFormat   = flag.String("log-format", "json", "structured log format: json (machine-readable, pinned schema) or text")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug (per-trial campaign events), info, warn, error")
		recorder    = flag.Int("recorder", 4096, "flight-recorder ring capacity (events); 0 disables the ring, /jobs/{id}/events, and SIGQUIT dumps")
		spans       = flag.Int("spans", 8192, "wall-clock span ring capacity backing /jobs/{id}/trace and /jobs/{id}/phases; 0 disables span tracing")
		spanFile    = flag.String("span-file", "", "stream completed spans to this file as they flush: .jsonl = JSON lines, .txt/.text = text (Chrome traces are served per job at /jobs/{id}/trace)")

		tenants       = flag.String("tenants", "", "JSON tenants file (API keys + quotas); empty = anonymous single-tenant mode")
		maxBody       = flag.Int64("max-body", 1<<20, "POST request body cap in bytes (413 beyond it)")
		cacheBytes    = flag.Int64("artifact-cache", 64<<20, "compiled-artifact cache bound in bytes (LRU eviction beyond it)")
		compileBudget = flag.Duration("compile-budget", 30*time.Second, "wall-time bound for compiling one submitted program under every scheme")

		workerMode  = flag.Bool("worker", false, "run as a fleet worker: join a coordinator, execute leased trial ranges, post shards back")
		join        = flag.String("join", "", "coordinator base URL for -worker mode, e.g. http://127.0.0.1:8321")
		workerID    = flag.String("worker-id", "", "stable worker identity for -worker mode (default: coordinator mints one)")
		fleetHB     = flag.Duration("fleet-heartbeat", 2*time.Second, "worker heartbeat cadence the coordinator advertises")
		fleetMisses = flag.Int("fleet-misses", 3, "missed heartbeats before a worker is lost and its leases reclaimed")
		fleetTTL    = flag.Duration("fleet-lease-ttl", 30*time.Second, "lease deadline; unreturned ranges are granted again after it")
		fleetSteal  = flag.Duration("fleet-steal-after", 10*time.Second, "lease age before a straggling range is work-stolen (duplicate grant, first complete wins)")
		fleetPoll   = flag.Duration("fleet-poll", 250*time.Millisecond, "lease-poll cadence the coordinator advertises to idle workers")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("campaignd: ")
	if *spanFile != "" {
		switch strings.ToLower(filepath.Ext(*spanFile)) {
		case ".jsonl", ".txt", ".text":
		default:
			fmt.Fprintf(os.Stderr, "campaignd: -span-file %s: want a .jsonl, .txt or .text path (Chrome traces are served per job at /jobs/{id}/trace)\n", *spanFile)
			os.Exit(2)
		}
	}

	level, err := parseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	// The terminal leg honors -log-level; the flight recorder keeps Info
	// and above whatever the terminal level. Per-trial Debug records
	// would evict a job's lifecycle from the ring, and each trial's
	// outcome is in the job's result and checkpoint anyway.
	var rec *olog.Recorder
	legs := []slog.Handler{olog.NewHandler(os.Stderr, olog.Options{Format: *logFormat, Level: level})}
	if *recorder > 0 {
		rec = olog.NewRecorder(*recorder)
		legs = append(legs, rec.Handler(slog.LevelInfo))
	}
	logger := olog.Attach(legs...)

	reg := obs.NewRegistry()

	if *workerMode {
		// Workers resolve program:<fp> workloads by fetching the source
		// from the coordinator and compiling it locally (cached); the
		// golden statistics cross-check proves both sides built the same
		// campaign.
		resolve := workerProgramResolver(strings.TrimRight(*join, "/"), *compileBudget)
		runWorker(*join, *workerID, service.CampaignPrepare(reg, logger, resolve), logger)
		return
	}

	registry, err := loadTenants(*tenants)
	if err != nil {
		log.Fatal(err)
	}
	programs, err := service.NewProgramStore(service.ProgramStoreConfig{
		Dir:           filepath.Join(*state, "programs"),
		Cache:         artifact.NewCache(*cacheBytes, reg),
		CompileBudget: *compileBudget,
		Logger:        logger,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The span tracer's ring backs the per-job HTTP endpoints; -span-file
	// adds a streaming sink behind the tracer's flusher. The service owns
	// the tracer's shutdown (Service.Shutdown closes it).
	var tracer *span.Tracer
	var spanOut *os.File
	if *spans > 0 {
		scfg := span.Config{Capacity: *spans, Metrics: reg}
		if *spanFile != "" {
			spanOut, err = os.Create(*spanFile)
			if err != nil {
				log.Fatal(err)
			}
			scfg.Sink = obs.SinkForPath(spanOut, *spanFile)
		}
		tracer = span.New(scfg)
	}

	fleet := service.NewFleet(service.FleetConfig{
		HeartbeatInterval: *fleetHB,
		HeartbeatMisses:   *fleetMisses,
		LeaseTTL:          *fleetTTL,
		StealAfter:        *fleetSteal,
		PollInterval:      *fleetPoll,
		Metrics:           reg,
		Logger:            logger,
	})
	prepare := service.CampaignPrepare(reg, logger, programs.Entry)
	svc, err := service.New(service.Config{
		StateDir:         *state,
		Executor:         &service.FleetExecutor{Fleet: fleet, Prepare: prepare},
		Fleet:            fleet,
		Tenants:          registry,
		Programs:         programs,
		MaxBodyBytes:     *maxBody,
		QueueDepth:       *queue,
		Concurrency:      *concurrency,
		MaxAttempts:      *attempts,
		JobDeadline:      *deadline,
		BreakerThreshold: *brThreshold,
		BreakerCooldown:  *brCooldown,
		Metrics:          reg,
		Logger:           logger,
		Events:           rec,
		Spans:            tracer,
	})
	if err != nil {
		log.Fatal(err)
	}

	srv := obs.NewServer(obs.ServerConfig{Snapshot: reg.Snapshot, RunsDir: *state, Instrument: reg,
		Live: pipeline.NewSampler(pipeline.NewProgress(reg)).Stream})
	svc.Mount(srv)
	// Catch the stop signals before the address line goes out: a script
	// may SIGTERM the daemon as soon as it has read it, and that must
	// drain, not kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
	bound, err := srv.Start(*addr)
	if err != nil {
		log.Fatal(err)
	}
	// The one stdout line, so scripts (and the e2e test) can learn the
	// bound port when -addr asked the kernel for one.
	fmt.Printf("campaignd listening on http://%s\n", bound)

	svc.Start()

	var got os.Signal
	for got = range sig {
		if got != syscall.SIGQUIT {
			break
		}
		// SIGQUIT is the flight-recorder tap: dump the ring to stderr and
		// keep serving. kill -QUIT $(pidof campaignd) is the "what has
		// this daemon been doing" question, answered without restarting.
		if rec == nil {
			log.Printf("SIGQUIT: flight recorder disabled (-recorder 0)")
			continue
		}
		n, err := rec.Dump(os.Stderr)
		if err != nil {
			log.Printf("SIGQUIT: flight recorder dump failed: %v", err)
			continue
		}
		log.Printf("SIGQUIT: dumped %d flight-recorder event(s) (%d dropped since start)", n, rec.Dropped())
	}
	log.Printf("received %s; draining (window %s)", got, *drain)

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	if err := svc.Shutdown(ctx); err != nil {
		log.Printf("warning: shutdown: %v", err)
	}
	cancel()
	if spanOut != nil {
		// Shutdown already closed the tracer (final flush + sink Close);
		// only the file handle remains ours.
		if err := spanOut.Close(); err != nil {
			log.Printf("warning: span file: %v", err)
		} else {
			log.Printf("spans written to %s", *spanFile)
		}
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv.Shutdown(httpCtx); err != nil {
		log.Printf("warning: http shutdown: %v", err)
	}
	httpCancel()
	log.Printf("drained; state persisted under %s — restart with the same -state to resume unfinished jobs", *state)
}

// parseLevel maps the -log-level flag to a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("campaignd: unknown -log-level %q (want debug, info, warn, or error)", s)
}

// loadTenants builds the tenant registry: from -tenants when set, else
// the anonymous single-tenant registry.
func loadTenants(path string) (*tenant.Registry, error) {
	if path == "" {
		return tenant.New(nil)
	}
	r, err := tenant.LoadFile(path)
	if err != nil {
		return nil, err
	}
	log.Printf("loaded %d tenant(s) from %s; API keys required on submissions", len(r.IDs()), path)
	return r, nil
}

// workerProgramResolver resolves program workloads over the fleet wire:
// GET /programs/{fp} for the store-buffer size the artifact must match,
// GET /programs/{fp}/source for the canonical IR, then a local compile
// into a worker-side cache so repeat leases against one program compile
// once.
func workerProgramResolver(coordinator string, budget time.Duration) service.ProgramResolver {
	cache := artifact.NewCache(0, nil)
	client := &http.Client{Timeout: 30 * time.Second}
	return func(ctx context.Context, fp string) (*artifact.Entry, error) {
		entry, _, err := cache.GetOrCompute(fp, func() (*artifact.Entry, error) {
			var meta struct {
				SBSize int `json:"sb_size"`
			}
			if err := fetchJSON(ctx, client, coordinator+"/programs/"+fp, &meta); err != nil {
				return nil, fmt.Errorf("campaignd: fetch program %s: %w", fp, err)
			}
			src, err := fetchText(ctx, client, coordinator+"/programs/"+fp+"/source")
			if err != nil {
				return nil, fmt.Errorf("campaignd: fetch program %s source: %w", fp, err)
			}
			f, err := ir.ParseFuncLimits(src, ir.DefaultParseLimits())
			if err != nil {
				return nil, fmt.Errorf("%w: program %s from coordinator does not parse: %v",
					fault.ErrInvalidConfig, fp, err)
			}
			cctx, cancel := artifact.Deadline(ctx, budget)
			defer cancel()
			return artifact.CompileAllContext(cctx, f, meta.SBSize, len(src))
		})
		return entry, err
	}
}

func fetchJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func fetchText(ctx context.Context, client *http.Client, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// runWorker is -worker mode: one fleet worker process, running until a
// signal drains it (the coordinator reclaims its leases by heartbeat
// timeout) or the coordinator quarantines it (exit 2 — a quarantined
// identity is never trusted again, so restarting under it is useless).
func runWorker(join, id string, prepare service.PrepareFunc, logger *slog.Logger) {
	if join == "" {
		log.Fatal("-worker needs -join http://coordinator:port")
	}
	wc, err := service.NewWorkerClient(service.WorkerConfig{
		Coordinator: strings.TrimRight(join, "/"),
		Prepare:     prepare,
		ID:          id,
		Logger:      logger,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The one stdout line, mirroring the coordinator's "listening on",
	// so scripts know the worker process came up.
	fmt.Printf("campaignd worker joining %s\n", join)
	err = wc.Run(ctx)
	switch {
	case errors.Is(err, service.ErrWorkerQuarantined):
		log.Printf("worker %s quarantined by coordinator; exiting", wc.ID())
		os.Exit(2)
	case errors.Is(err, context.Canceled):
		log.Printf("worker %s drained on signal", wc.ID())
	case err != nil:
		log.Fatal(err)
	}
}
