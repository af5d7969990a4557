// Command siwad-gateway fronts a fleet of siwad-server replicas: it
// routes each program to the replica that owns its digest on a
// consistent-hash ring (so replica caches hit like a single node's),
// health-checks the fleet, wraps every backend in a circuit breaker,
// and scatter-gathers batch requests across the ring.
//
// Endpoints:
//
//	POST /v1/analyze        routed by program digest, single-flight deduped
//	POST /v1/analyze/batch  sharded by digest, merged in input order
//	GET  /v1/algorithms     relayed from any live replica
//	GET  /v1/fleet/status   merged fleet snapshot (scrapes every replica)
//	GET  /healthz           gateway liveness
//	GET  /readyz            503 until at least one backend is routable
//	GET  /metrics           per-backend counters, breaker states, ring shares
//	GET  /debug/traces      retained trace summaries (newest first)
//	GET  /debug/traces/ID   one trace, replica spans stitched under gateway spans
//
// Flags:
//
//	-addr HOST:PORT        listen address (default :8090)
//	-backends LIST         comma-separated replica base URLs (required),
//	                       e.g. http://a:8080,http://b:8080
//	-vnodes N              virtual nodes per backend on the ring (default 64)
//	-health-interval D     active /healthz + /readyz probe period (default 2s)
//	-health-timeout D      per-probe timeout (default 1s)
//	-breaker-threshold N   consecutive transport failures that open a
//	                       backend's breaker (default 3)
//	-breaker-cooldown D    open-state cooldown before a half-open probe
//	                       (default 2s)
//	-retries N             extra attempts after an upstream 429/503
//	                       (default 2, -1 disables)
//	-retry-budget RATIO    retry tokens earned per upstream success; retries
//	                       and hedges spend whole tokens, capping the
//	                       sustained retry ratio (default 0.1, 0 disables)
//	-retry-burst N         retry-token bucket capacity and initial fill
//	                       (default 10)
//	-hedge-after P         hedge single analyzes once the primary exceeds
//	                       its observed P-th latency percentile: one
//	                       speculative attempt to the next ring candidate,
//	                       first answer wins (default 95, 0 disables)
//	-default-timeout D     end-to-end deadline budget for requests without
//	                       a timeoutMs; the remainder is propagated to
//	                       replicas via X-Deadline-Ms (default 30s)
//	-max-timeout D         clamp on client-requested deadline budgets
//	                       (default 5m)
//	-chunk N               items per upstream sub-batch (default 16)
//	-max-batch N           programs per gateway batch request (default 1024)
//	-max-body N            request body limit in bytes (default 4 MiB)
//	-grace D               shutdown drain budget (default 10s)
//	-log MODE              request logging: text, json, or off (default text)
//	-trace-sample N        head-sample 1 in N requests for trace retention
//	                       (default 1 = every request, 0 disables)
//	-slow-ms N             slow-request WARN + trace retention threshold
//	                       (default 1000, 0 disables)
//	-trace-ring N          retained traces in the debug ring (default 256)
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
	fs := flag.NewFlagSet("siwad-gateway", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", ":8090", "listen address")
	backends := fs.String("backends", "", "comma-separated replica base URLs (required)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per backend (0 = 64)")
	healthInterval := fs.Duration("health-interval", 0, "health probe period (0 = 2s)")
	healthTimeout := fs.Duration("health-timeout", 0, "per-probe timeout (0 = 1s)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "transport failures that open a breaker (0 = 3)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open-breaker cooldown (0 = 2s)")
	retries := fs.Int("retries", 0, "extra attempts after upstream 429/503 (0 = 2, -1 disables)")
	retryBudget := fs.Float64("retry-budget", 0.1, "retry tokens earned per upstream success (0 disables retry budgeting)")
	retryBurst := fs.Int("retry-burst", 0, "retry-token bucket capacity (0 = 10)")
	hedgeAfter := fs.Int("hedge-after", 95, "hedge single analyzes after this latency percentile, 1-99 (0 disables)")
	defaultTimeout := fs.Duration("default-timeout", 0, "deadline budget for requests without timeoutMs (0 = 30s)")
	maxTimeout := fs.Duration("max-timeout", 0, "clamp on client-requested deadline budgets (0 = 5m)")
	chunk := fs.Int("chunk", 0, "items per upstream sub-batch (0 = 16)")
	maxBatch := fs.Int("max-batch", 0, "programs per batch request (0 = 1024)")
	maxBody := fs.Int64("max-body", 0, "request body limit in bytes (0 = 4 MiB)")
	grace := fs.Duration("grace", 10*time.Second, "shutdown drain budget")
	logMode := fs.String("log", "text", "request logging: text, json, or off")
	traceSample := fs.Int("trace-sample", 1, "head-sample 1 in N requests for tracing (0 disables)")
	slowMS := fs.Int("slow-ms", 1000, "slow-request threshold in milliseconds (0 disables)")
	traceRing := fs.Int("trace-ring", 256, "retained traces in the debug ring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	urls := parseBackends(*backends)
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "siwad-gateway: -backends is required (comma-separated replica URLs)")
		return 2
	}
	if err := fault.InitFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "siwad-gateway: %v\n", err)
		return 2
	}
	if fault.Active() {
		fmt.Fprintln(os.Stderr, "siwad-gateway: WARNING: fault injection armed via SIWA_FAULTS")
	}
	var logger *slog.Logger
	switch *logMode {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "siwad-gateway: unknown -log mode %q (valid: text, json, off)\n", *logMode)
		return 2
	}
	g, err := cluster.New(cluster.Config{
		Addr:             *addr,
		Backends:         urls,
		VirtualNodes:     *vnodes,
		HealthInterval:   *healthInterval,
		HealthTimeout:    *healthTimeout,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		MaxRetries:       *retries,
		RetryBudgetRatio: zeroDisablesF(*retryBudget),
		RetryBudgetBurst: *retryBurst,
		HedgePercentile:  *hedgeAfter,
		DefaultTimeout:   *defaultTimeout,
		MaxTimeout:       *maxTimeout,
		BatchChunk:       *chunk,
		MaxBatch:         *maxBatch,
		MaxBodyBytes:     *maxBody,
		ShutdownGrace:    *grace,
		Logger:           logger,
		TraceSample:      zeroDisables(*traceSample),
		SlowThreshold:    time.Duration(zeroDisables(*slowMS)) * time.Millisecond,
		TraceRing:        *traceRing,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "siwad-gateway: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "siwad-gateway: %s listening on %s, routing to %d backends\n",
		obs.VersionString(), *addr, len(urls))
	if err := g.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "siwad-gateway: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "siwad-gateway: drained, bye")
	return 0
}

// zeroDisables maps the flag convention (0 = off) onto the Config
// convention (0 = default, negative = off).
func zeroDisables(flagVal int) int {
	if flagVal == 0 {
		return -1
	}
	return flagVal
}

// zeroDisablesF is zeroDisables for float-valued flags (-retry-budget).
func zeroDisablesF(flagVal float64) float64 {
	if flagVal == 0 {
		return -1
	}
	return flagVal
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
