// Command siwad-server runs the siwa analysis service: a long-running
// HTTP JSON front end over the Masticola & Ryder detectors with one
// content-addressed cache for reports and pipeline artifacts and a
// bounded worker pool.
//
// Endpoints:
//
//	POST /v1/analyze        one MiniAda program + options -> JSONReport
//	POST /v1/analyze/batch  many programs, fanned out across the pool
//	GET  /v1/algorithms     the detector spectrum with descriptions
//	GET  /healthz           liveness probe
//	GET  /readyz            readiness probe; 503 while starting or draining
//	GET  /metrics           counters + latency histograms, Prometheus text
//	GET  /debug/traces      retained traces (sampled + slow/degraded/errored)
//	GET  /debug/traces/{id} one trace's span trees by trace id
//	GET  /debug/pprof/...   runtime profiles (only with -pprof)
//
// Flags:
//
//	-addr HOST:PORT   listen address (default :8080)
//	-workers N        concurrent analyses (default GOMAXPROCS)
//	-parallelism N    sweep workers inside each analysis (default 1: the
//	                  pool already parallelizes across requests; 0 uses
//	                  GOMAXPROCS — verdicts are identical either way)
//	-queue-depth N    admitted analyses that may wait for a worker; beyond
//	                  it requests are shed with 429 (0 = 4x workers, -1
//	                  disables waiting)
//	-limits SPEC      per-analysis resource caps as tasks=N,nodes=N,
//	                  unrolled=N (any subset), or "off" / "default"
//	-stage-cache-mb N cache byte budget in MiB: rendered reports keyed on
//	                  (source, options) and memoized pipeline artifacts
//	                  (parse+unroll, CLG + ordering tables, per-algorithm
//	                  verdicts) keyed on the source digest, under one LRU;
//	                  0 default (8), -1 disables both
//	-max-body N       request body limit in bytes (default 4 MiB)
//	-max-batch N      programs per batch request (default 256)
//	-timeout D        default per-request analysis deadline (default 30s)
//	-max-timeout D    upper clamp on client-requested deadlines (default 5m)
//	-deadline-floor D smallest propagated X-Deadline-Ms budget worth
//	                  admitting; below it requests are shed outright and
//	                  counted in siwa_deadline_shed_total (default 5ms)
//	-log MODE         request logging: text, json, or off (default text)
//	-trace            trace every analysis, feeding the per-stage latency
//	                  histograms (requests can still opt in per-call)
//	-trace-sample N   head-sample 1 in N traces into /debug/traces (default
//	                  1 = every trace; 0 disables sampling — slow, degraded
//	                  and errored requests are always retained)
//	-slow-ms N        slow-request threshold in milliseconds: slower
//	                  requests log at WARN with their stage breakdown and
//	                  are always retained (default 1000; 0 disables)
//	-trace-ring N     retained-trace ring capacity (default 256)
//	-pprof            mount net/http/pprof under /debug/pprof/
//
// The SIWA_FAULTS environment variable arms fault-injection points for
// chaos drills ("point:kind[=arg][:every=N];...", see internal/fault).
//
// The server drains in-flight requests on SIGINT/SIGTERM and exits 0 on a
// clean shutdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	siwa "repro"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("siwad-server", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "concurrent analyses (0 = GOMAXPROCS)")
	parallelism := fs.Int("parallelism", 1, "sweep workers per analysis (1 = serial, 0 = GOMAXPROCS; the pool already parallelizes across requests)")
	queueDepth := fs.Int("queue-depth", 0, "admission queue depth before shedding (0 = 4x workers, -1 disables waiting)")
	limitsSpec := fs.String("limits", "", "per-analysis resource caps: tasks=N,nodes=N,unrolled=N, or off/default (default: default)")
	stageCacheMB := fs.Int("stage-cache-mb", 0, "cache byte budget in MiB for reports and pipeline artifacts (0 = 8, -1 disables)")
	maxBody := fs.Int64("max-body", 0, "request body limit in bytes (0 = 4 MiB)")
	maxBatch := fs.Int("max-batch", 0, "programs per batch request (0 = 256)")
	timeout := fs.Duration("timeout", 0, "default analysis deadline (0 = 30s)")
	maxTimeout := fs.Duration("max-timeout", 0, "deadline clamp (0 = 5m)")
	deadlineFloor := fs.Duration("deadline-floor", 0, "smallest propagated deadline budget worth admitting (0 = 5ms)")
	grace := fs.Duration("grace", 10*time.Second, "shutdown drain budget")
	logMode := fs.String("log", "text", "request logging: text, json, or off")
	trace := fs.Bool("trace", false, "trace every analysis into the per-stage latency histograms")
	traceSample := fs.Int("trace-sample", 1, "head-sample 1 in N traces into /debug/traces (0 disables sampling)")
	slowMS := fs.Int("slow-ms", 1000, "slow-request threshold in ms for WARN logging and trace retention (0 disables)")
	traceRing := fs.Int("trace-ring", 256, "retained-trace ring capacity")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	limits, err := siwa.ParseLimits(*limitsSpec, siwa.DefaultLimits())
	if err != nil {
		fmt.Fprintf(os.Stderr, "siwad-server: %v\n", err)
		return 2
	}
	if err := fault.InitFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "siwad-server: %v\n", err)
		return 2
	}
	if fault.Active() {
		fmt.Fprintln(os.Stderr, "siwad-server: WARNING: fault injection armed via SIWA_FAULTS")
	}
	var logger *slog.Logger
	switch *logMode {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "siwad-server: unknown -log mode %q (valid: text, json, off)\n", *logMode)
		return 2
	}
	srv := service.New(service.Config{
		Addr:           *addr,
		Workers:        *workers,
		Parallelism:    configParallelism(*parallelism),
		QueueDepth:     *queueDepth,
		Limits:         limits,
		StageCacheMB:   *stageCacheMB,
		MaxBodyBytes:   *maxBody,
		MaxBatch:       *maxBatch,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		DeadlineFloor:  *deadlineFloor,
		ShutdownGrace:  *grace,
		Logger:         logger,
		EnablePprof:    *enablePprof,
		TraceAll:       *trace,
		TraceSample:    zeroDisables(*traceSample),
		SlowThreshold:  time.Duration(zeroDisables(*slowMS)) * time.Millisecond,
		TraceRing:      *traceRing,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "siwad-server: %s listening on %s\n", obs.VersionString(), *addr)
	if err := srv.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "siwad-server: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "siwad-server: drained, bye")
	return 0
}

// configParallelism maps the flag convention (0 = GOMAXPROCS, matching
// siwad) onto service.Config's (0 = serial default, negative = GOMAXPROCS).
func configParallelism(flagVal int) int {
	if flagVal == 0 {
		return -1
	}
	return flagVal
}

// zeroDisables maps the flag convention (0 = off) onto the config
// convention (0 = default, negative = off).
func zeroDisables(flagVal int) int {
	if flagVal == 0 {
		return -1
	}
	return flagVal
}
