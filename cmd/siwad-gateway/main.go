// Command siwad-gateway fronts a fleet of siwad-server replicas: it
// routes each program to the replica that owns its digest on a
// consistent-hash ring (so replica caches hit like a single node's),
// health-checks the fleet, takes a backend out of routing after
// consecutive transport failures until a probe passes again, and
// scatter-gathers batch requests across the ring.
//
// Endpoints:
//
//	POST /v1/analyze        routed by program digest, single-flight deduped
//	POST /v1/analyze/batch  sharded by digest, merged in input order
//	GET  /v1/algorithms     relayed from any live replica
//	GET  /v1/fleet/status   merged fleet snapshot (scrapes every replica)
//	GET  /healthz           gateway liveness
//	GET  /readyz            503 until at least one backend is routable
//	GET  /metrics           per-backend counters, routing flags, ring shares
//	GET  /debug/traces      retained trace summaries (newest first)
//	GET  /debug/traces/ID   one trace, replica spans stitched under gateway spans
//
// Flags (each defaults to its cluster.Config field's zero value, which
// the Config reads as the default in parentheses; -1 turns a setting off):
//
//	-addr HOST:PORT        listen address (empty = :8090)
//	-backends LIST         comma-separated replica base URLs (required),
//	                       e.g. http://a:8080,http://b:8080
//	-health-interval D     active /healthz + /readyz probe period; only a
//	                       passing probe lets a backend back in (0 = 2s)
//	-failure-threshold N   consecutive transport failures that take a
//	                       backend out of routing (0 = 3)
//	-retries N             extra attempts after an upstream 429/503
//	                       (0 = 2, -1 = off)
//	-retry-budget RATIO    retry tokens earned per upstream success; retries
//	                       and hedges spend whole tokens, capping the
//	                       sustained retry ratio (0 = 0.1, -1 = off)
//	-retry-burst N         retry-token bucket capacity and initial fill
//	                       (0 = 10)
//	-hedge-after P         hedge single analyzes once the primary exceeds
//	                       its observed P-th latency percentile, 1-99: one
//	                       speculative attempt to the next ring candidate,
//	                       first answer wins (0 = off). Off by default: the
//	                       hedge makes a replica that does not own the
//	                       digest analyze and cache the program again.
//	-default-timeout D     end-to-end deadline for requests without a
//	                       timeoutMs; what is left is propagated to
//	                       replicas via X-Deadline-Ms (0 = 30s)
//	-max-timeout D         clamp on client-requested deadlines (0 = 5m)
//	-chunk N               items per upstream sub-batch (0 = 16)
//	-max-batch N           programs per gateway batch request (0 = 1024)
//	-max-body N            request body limit in bytes (0 = 4 MiB)
//	-grace D               shutdown drain budget (0 = 10s)
//	-log MODE              request logging: text, json, or off (default text)
//	-trace-sample N        head-sample 1 in N requests for trace retention
//	                       (0 = 1, every request; -1 = off)
//	-slow-ms N             slow-request WARN + trace retention threshold
//	                       in milliseconds (0 = 1000, -1 = off)
//
// Fixed, not flags: 64 ring points per backend, a 1s bound on each health
// probe, a 256-trace debug ring, and a 25ms retry backoff doubling per
// attempt (an upstream Retry-After overrides it, honored up to 2s).
//
// The SIWA_FAULTS environment variable arms fault-injection points
// (including the proxy-path point "gateway.forward") for chaos drills.
//
// The gateway drains in-flight requests on SIGINT/SIGTERM and exits 0 on
// a clean shutdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
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
		fmt.Fprintf(os.Stderr, "siwad-gateway: %v\n", err)
		return 2
	}
	if fault.Active() {
		fmt.Fprintln(os.Stderr, "siwad-gateway: WARNING: fault injection armed via SIWA_FAULTS")
	}
	cfg = cfg.Normalize()
	g, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "siwad-gateway: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "siwad-gateway: %s listening on %s, routing to %d backends\n",
		obs.VersionString(), cfg.Addr, len(cfg.Backends))
	if err := g.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "siwad-gateway: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "siwad-gateway: drained, bye")
	return 0
}

// config parses the flags into a cluster.Config. Every flag defaults to
// its field's zero value and is copied unchanged, so Normalize alone owns
// the defaults. It reports a usage error on stderr and returns false.
func config(args []string) (cluster.Config, bool) {
	var c cluster.Config
	fs := flag.NewFlagSet("siwad-gateway", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.StringVar(&c.Addr, "addr", "", "listen address (empty = :8090)")
	backends := fs.String("backends", "", "comma-separated replica base URLs (required)")
	fs.DurationVar(&c.HealthInterval, "health-interval", 0, "health probe period (0 = 2s)")
	fs.IntVar(&c.FailureThreshold, "failure-threshold", 0, "consecutive transport failures that take a backend out (0 = 3)")
	fs.IntVar(&c.MaxRetries, "retries", 0, "extra attempts after upstream 429/503 (0 = 2, -1 = off)")
	fs.Float64Var(&c.RetryBudgetRatio, "retry-budget", 0, "retry tokens earned per upstream success (0 = 0.1, -1 = off)")
	fs.IntVar(&c.RetryBudgetBurst, "retry-burst", 0, "retry-token bucket capacity (0 = 10)")
	fs.IntVar(&c.HedgePercentile, "hedge-after", 0, "hedge single analyzes after this latency percentile, 1-99 (0 = off)")
	fs.DurationVar(&c.DefaultTimeout, "default-timeout", 0, "deadline for requests without timeoutMs (0 = 30s)")
	fs.DurationVar(&c.MaxTimeout, "max-timeout", 0, "clamp on client-requested deadlines (0 = 5m)")
	fs.IntVar(&c.BatchChunk, "chunk", 0, "items per upstream sub-batch (0 = 16)")
	fs.IntVar(&c.MaxBatch, "max-batch", 0, "programs per batch request (0 = 1024)")
	fs.Int64Var(&c.MaxBodyBytes, "max-body", 0, "request body limit in bytes (0 = 4 MiB)")
	fs.DurationVar(&c.ShutdownGrace, "grace", 0, "shutdown drain budget (0 = 10s)")
	logMode := fs.String("log", "text", "request logging: text, json, or off")
	fs.IntVar(&c.TraceSample, "trace-sample", 0, "head-sample 1 in N requests for tracing (0 = 1, -1 = off)")
	slowMS := fs.Int("slow-ms", 0, "slow-request threshold in milliseconds (0 = 1000, -1 = off)")
	if err := fs.Parse(args); err != nil {
		return c, false
	}
	c.SlowThreshold = time.Duration(*slowMS) * time.Millisecond
	if c.Backends = parseBackends(*backends); len(c.Backends) == 0 {
		fmt.Fprintln(os.Stderr, "siwad-gateway: -backends is required (comma-separated replica URLs)")
		return c, false
	}
	switch *logMode {
	case "text":
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		c.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "siwad-gateway: unknown -log mode %q (valid: text, json, off)\n", *logMode)
		return c, false
	}
	return c, true
}

// parseBackends splits the -backends list, trimming blanks and trailing
// slashes so "http://a:8080/" and "http://a:8080" name the same replica.
func parseBackends(spec string) []string {
	var out []string
	for _, s := range strings.Split(spec, ",") {
		s = strings.TrimRight(strings.TrimSpace(s), "/")
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}
