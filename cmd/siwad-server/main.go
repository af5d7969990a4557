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
// Flags (each defaults to its service.Config field's zero value, which
// the Config reads as the default in parentheses; -1 turns a setting off):
//
//	-addr HOST:PORT   listen address (empty = :8080)
//	-workers N        concurrent analyses (0 = GOMAXPROCS)
//	-queue-depth N    admitted analyses that may wait for a worker; beyond
//	                  it requests are shed with 429 (0 = 4x workers,
//	                  -1 = no waiting)
//	-limits SPEC      per-analysis resource caps as tasks=N,nodes=N,
//	                  unrolled=N,syncedges=N (any subset), or "off" /
//	                  "default"
//	-stage-cache-mb N cache byte budget in MiB: rendered reports keyed on
//	                  (source, options) and memoized pipeline artifacts
//	                  (parse+unroll, CLG + ordering tables, per-algorithm
//	                  verdicts) keyed on the source digest, under one LRU
//	                  (0 = 8, -1 = off for both)
//	-max-body N       request body limit in bytes (0 = 4 MiB)
//	-max-batch N      programs per batch request (0 = 256)
//	-timeout D        default per-request analysis deadline (0 = 30s)
//	-max-timeout D    upper clamp on client-requested deadlines (0 = 5m)
//	-deadline-floor D smallest propagated X-Deadline-Ms budget worth
//	                  admitting; below it requests are shed outright and
//	                  counted in siwa_deadline_shed_total (0 = 5ms)
//	-grace D          shutdown drain budget (0 = 10s)
//	-log MODE         request logging: text, json, or off (default text)
//	-trace-sample N   head-sample 1 in N traces into /debug/traces (0 = 1,
//	                  every trace; -1 = off — slow, degraded and errored
//	                  requests are always retained)
//	-slow-ms N        slow-request threshold in milliseconds: slower
//	                  requests log at WARN with their stage breakdown and
//	                  are always retained (0 = 1000, -1 = off)
//	-pprof            mount net/http/pprof under /debug/pprof/
//
// Fixed, not flags: each analysis runs its detector sweep serially (the
// worker pool already runs -workers analyses at once, and verdicts are
// identical either way), and the debug ring retains 256 traces.
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
	cfg, ok := config(args)
	if !ok {
		return 2
	}
	if err := fault.InitFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "siwad-server: %v\n", err)
		return 2
	}
	if fault.Active() {
		fmt.Fprintln(os.Stderr, "siwad-server: WARNING: fault injection armed via SIWA_FAULTS")
	}
	cfg = cfg.Normalize()
	srv := service.New(cfg)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "siwad-server: %s listening on %s\n", obs.VersionString(), cfg.Addr)
	if err := srv.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "siwad-server: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "siwad-server: drained, bye")
	return 0
}

// config parses the flags into a service.Config. Every flag defaults to
// its field's zero value and is copied unchanged, so Normalize alone owns
// the defaults. It reports a usage error on stderr and returns false.
func config(args []string) (service.Config, bool) {
	var c service.Config
	fs := flag.NewFlagSet("siwad-server", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.StringVar(&c.Addr, "addr", "", "listen address (empty = :8080)")
	fs.IntVar(&c.Workers, "workers", 0, "concurrent analyses (0 = GOMAXPROCS)")
	fs.IntVar(&c.QueueDepth, "queue-depth", 0, "admission queue depth before shedding (0 = 4x workers, -1 = no waiting)")
	limitsSpec := fs.String("limits", "", "per-analysis resource caps: tasks=N,nodes=N,unrolled=N,syncedges=N, or off/default (empty = default)")
	fs.IntVar(&c.StageCacheMB, "stage-cache-mb", 0, "cache byte budget in MiB for reports and pipeline artifacts (0 = 8, -1 = off)")
	fs.Int64Var(&c.MaxBodyBytes, "max-body", 0, "request body limit in bytes (0 = 4 MiB)")
	fs.IntVar(&c.MaxBatch, "max-batch", 0, "programs per batch request (0 = 256)")
	fs.DurationVar(&c.DefaultTimeout, "timeout", 0, "default analysis deadline (0 = 30s)")
	fs.DurationVar(&c.MaxTimeout, "max-timeout", 0, "deadline clamp (0 = 5m)")
	fs.DurationVar(&c.DeadlineFloor, "deadline-floor", 0, "smallest propagated deadline budget worth admitting (0 = 5ms)")
	fs.DurationVar(&c.ShutdownGrace, "grace", 0, "shutdown drain budget (0 = 10s)")
	logMode := fs.String("log", "text", "request logging: text, json, or off")
	fs.IntVar(&c.TraceSample, "trace-sample", 0, "head-sample 1 in N traces into /debug/traces (0 = 1, -1 = off)")
	slowMS := fs.Int("slow-ms", 0, "slow-request threshold in ms for WARN logging and trace retention (0 = 1000, -1 = off)")
	fs.BoolVar(&c.EnablePprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return c, false
	}
	c.SlowThreshold = time.Duration(*slowMS) * time.Millisecond
	limits, err := siwa.ParseLimits(*limitsSpec, siwa.DefaultLimits())
	if err != nil {
		fmt.Fprintf(os.Stderr, "siwad-server: %v\n", err)
		return c, false
	}
	c.Limits = limits
	switch *logMode {
	case "text":
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		c.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "siwad-server: unknown -log mode %q (valid: text, json, off)\n", *logMode)
		return c, false
	}
	return c, true
}
