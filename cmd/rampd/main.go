// Command rampd serves reliability studies over HTTP: the scaling study
// of the paper as a JSON API with result caching, request coalescing, and
// load shedding, so many clients can query (profile × technology)
// lifetime numbers without each paying a cold simulation.
//
// Usage:
//
//	rampd [-addr :8080] [-n 200000] [-max-n 2000000] [-default-fidelity exact]
//	      [-cache-size 64]
//	      [-cache-ttl 1h] [-queue 4] [-timeout 5m] [-drain 30s]
//	      [-parallelism N] [-cache-dir DIR] [-stage-cache 256] [-heartbeat 10s]
//	      [-mc-samples 200000] [-mc-replicas 2000000]
//	      [-batch-queue 256] [-batch-workers 2] [-batch-max-jobs 512]
//	      [-job-retries 3] [-job-backoff 250ms] [-job-ttl 15m]
//	      [-tenant-qps 0] [-tenant-burst 0] [-tenant-inflight 0]
//	      [-ready-high-water N] [-pprof-addr localhost:6060] [-trace-retain 8]
//	      [-ledger-size 512] [-log-level info] [-log-format text]
//
// Endpoints:
//
//	GET/POST /v1/study         full study document  (?apps=a,b&techs=x,y&instructions=n&fidelity=m)
//	GET/POST /v1/study/stream  the same study as NDJSON, one event per
//	                           completed (app × tech) cell, then the document
//	GET/POST /v1/study/mc      Monte Carlo lifetime distributions as NDJSON —
//	                           per-cell percentile/CI estimates, then the result
//	GET/POST /v1/mttf          lifetime summary     (same parameters, same cache)
//	GET      /v1/profiles      the benchmark registry
//	GET      /v1/study/trace   Chrome trace-event JSON of a retained study
//	POST     /v1/batch         submit up to -batch-max-jobs study/MC configs as
//	                           one async batch (X-Tenant selects the quota
//	                           bucket); 202 with batch and job IDs
//	GET      /v1/batch/{id}    per-job state/percent; DELETE cancels the batch
//	GET      /v1/batch/{id}/stream      NDJSON job transitions + heartbeats
//	GET      /v1/batch/{id}/jobs/{job}  finished job's result document
//	GET      /v1/ops/runs      recent run records from the cost ledger — one
//	                           per study/MC/batch-job execution with wall,
//	                           queue, and per-stage CPU cost (?tenant=&key=&
//	                           outcome=&kind=&limit=)
//	GET      /v1/ops/runs/{id} one run record by ledger ID
//	GET      /v1/ops/tail      NDJSON live tail of run records (?replay=N);
//	                           cmd/rampstat renders it in a terminal
//	GET      /healthz          liveness; always 200 while the process serves
//	GET      /readyz           readiness; 503 while draining or while the job
//	                           queue is past -ready-high-water
//	GET      /metrics          request/cache/coalescing/scheduler/stage-cache/job
//	                           counters (?format=prometheus for text exposition)
//
// Structured request logs — one record per request, carrying the
// X-Request-ID echoed in responses — go to stderr (-log-level,
// -log-format). With -pprof-addr the net/http/pprof handlers are served
// on a separate listener, kept off the public API surface; the flag is
// off by default.
//
// Every JSON response carries "schema_version"; errors use the stable
// envelope {"schema_version":1,"error":{"code","message"}}. Studies run
// through a content-addressed stage cache (timing / thermal / reliability
// artifacts), so requests differing only in downstream parameters replay
// the cheap stages; -cache-dir persists those artifacts across restarts,
// each stage store appending to one checksummed segment file of its own
// under the directory (damaged records read as misses; nothing prunes it).
//
// SIGINT/SIGTERM starts a graceful shutdown: /readyz flips to 503 (liveness
// on /healthz stays 200), the listener stops accepting, in-flight requests
// (and the simulations they wait on) finish within -drain, then the batch
// job queue stops and the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"github.com/ramp-sim/ramp/internal/cli"
	"github.com/ramp-sim/ramp/internal/server"
	"github.com/ramp-sim/ramp/internal/sim"
)

func main() {
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	if err := runCtx(ctx, os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rampd:", err)
		os.Exit(1)
	}
}

func runCtx(ctx context.Context, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("rampd", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8080", "listen address")
	n := fs.Int64("n", 200_000, "default instructions per application per request")
	defaultFidelity := fs.String("default-fidelity", "",
		"fidelity mode for requests that name none: exact, adaptive, or phase (empty = exact)")
	maxN := fs.Int64("max-n", 2_000_000, "per-request instruction cap")
	cacheSize := fs.Int("cache-size", 64, "result cache entries (LRU bound)")
	cacheTTL := fs.Duration("cache-ttl", time.Hour, "result cache TTL (0 = no expiry)")
	queue := fs.Int("queue", 4, "admission bound: concurrent distinct studies before shedding 429s")
	timeout := fs.Duration("timeout", 5*time.Minute, "per-study compute deadline (0 = none)")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown drain deadline")
	parallelism := fs.Int("parallelism", 0, "max cells (or Monte Carlo batches) of one study in progress at once (0 = bounded only by the GOMAXPROCS-slot compute pool)")
	cacheDir := fs.String("cache-dir", "", "persist stage artifacts (timing/thermal/fit) under this directory")
	stageCache := fs.Int("stage-cache", 0, "in-memory stage-cache entries per stage (0 = default 256)")
	heartbeat := fs.Duration("heartbeat", 10*time.Second, "idle heartbeat interval on /v1/study/stream")
	mcSamples := fs.Int("mc-samples", 0, "per-cell Monte Carlo replica cap on /v1/study/mc (0 = default 200000)")
	mcReplicas := fs.Int("mc-replicas", 0, "total Monte Carlo replica cap — samples × grid cells (0 = default 2000000)")
	batchQueue := fs.Int("batch-queue", 0, "live batch-job bound across tenants (0 = default 256)")
	batchWorkers := fs.Int("batch-workers", 0, "batch executor pool size (0 = default 2)")
	batchMaxJobs := fs.Int("batch-max-jobs", 0, "configs per POST /v1/batch request (0 = default 512)")
	jobRetries := fs.Int("job-retries", 0, "executions per batch job incl. the first (0 = default 3)")
	jobBackoff := fs.Duration("job-backoff", 0, "delay before a job's first retry, doubling per attempt (0 = default 250ms)")
	jobTTL := fs.Duration("job-ttl", 0, "retention of finished batches for status/result queries (0 = default 15m)")
	tenantQPS := fs.Float64("tenant-qps", 0, "per-tenant batch-job admission rate (0 = unlimited)")
	tenantBurst := fs.Int("tenant-burst", 0, "per-tenant admission burst (0 = derived from -tenant-qps)")
	tenantInflight := fs.Int("tenant-inflight", 0, "per-tenant live batch-job cap (0 = unlimited)")
	readyHighWater := fs.Int("ready-high-water", 0, "queued batch jobs before /readyz reports 503 (0 = 90% of -batch-queue)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
	traceRetain := fs.Int("trace-retain", 0, "completed study traces retained for /v1/study/trace (0 = default 8)")
	ledgerSize := fs.Int("ledger-size", 0, "run records retained by the cost ledger (0 = default 512, negative = disable /v1/ops)")
	logFlags := cli.RegisterLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		return err
	}

	simCfg := sim.DefaultConfig()
	simCfg.Instructions = *n
	fd, err := sim.ParseFidelityMode(*defaultFidelity)
	if err != nil {
		return err
	}
	simCfg.Fidelity = fd
	srv, err := server.New(server.Config{
		Sim:                 simCfg,
		DefaultInstructions: *n,
		MaxInstructions:     *maxN,
		CacheSize:           *cacheSize,
		CacheTTL:            *cacheTTL,
		MaxQueue:            *queue,
		ComputeTimeout:      *timeout,
		Parallelism:         *parallelism,
		CacheDir:            *cacheDir,
		StageCacheEntries:   *stageCache,
		StreamHeartbeat:     *heartbeat,
		MaxMCSamples:        *mcSamples,
		MaxMCReplicas:       *mcReplicas,
		Logger:              logger,
		TraceRetain:         *traceRetain,
		BatchCapacity:       *batchQueue,
		BatchWorkers:        *batchWorkers,
		BatchMaxJobs:        *batchMaxJobs,
		JobMaxAttempts:      *jobRetries,
		JobRetryBackoff:     *jobBackoff,
		JobTTL:              *jobTTL,
		TenantQPS:           *tenantQPS,
		TenantBurst:         *tenantBurst,
		TenantInflight:      *tenantInflight,
		ReadyHighWater:      *readyHighWater,
		LedgerSize:          *ledgerSize,
	})
	if err != nil {
		return err
	}
	srv.Publish("rampd")

	// The profiler listens on its own socket so /debug/pprof never rides
	// the public API address; registration is explicit on a fresh mux —
	// the import's DefaultServeMux side effect is not what is served.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return err
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		go psrv.Serve(pln)
		defer psrv.Close()
		fmt.Fprintf(out, "rampd: pprof on %s\n", pln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Fprintf(out, "rampd: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop advertising health, stop accepting, let
	// in-flight requests and their simulations finish, then cancel the
	// base context in case anything overran the drain deadline.
	fmt.Fprintf(out, "rampd: draining (deadline %s)\n", *drain)
	srv.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = httpSrv.Shutdown(sctx)
	srv.Close()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	fmt.Fprintln(out, "rampd: drained, bye")
	return nil
}
