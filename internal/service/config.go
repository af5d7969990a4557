// Package service implements the siwa analysis service: a concurrent HTTP
// JSON front end over siwa.AnalyzeSourceContext with one content-addressed,
// byte-budgeted cache for rendered reports and pipeline artifacts, a
// bounded worker pool, per-request deadlines, plain-text metrics, and
// graceful shutdown. Its Edge (tracing, request ids, panic containment,
// request log, drain) also fronts the cluster gateway. It is the
// long-running counterpart to the one-shot siwad CLI; cmd/siwad-server
// wires it to flags and signals.
package service

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"time"

	siwa "repro"
)

// Config shapes a Server. The zero value is not usable directly; call
// Normalize (New does) to fill unset fields.
type Config struct {
	// Addr is the listen address for Server.Run ("host:port").
	Addr string
	// Workers bounds the number of analyses executing at once, across all
	// requests (single and batch). 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many admitted analyses may wait for a worker
	// slot; beyond it requests are shed with HTTP 429 and a Retry-After
	// header instead of queueing without bound. 0 means 4x Workers;
	// negative means no waiting (run immediately or shed).
	QueueDepth int
	// Limits bounds each analysis (task count, parsed rendezvous nodes,
	// unrolled rendezvous nodes); inputs that would exceed them get a
	// structured resource_limit error instead of unbounded work. The zero
	// value means siwa.DefaultLimits(); set fields negative to lift
	// individual limits.
	Limits siwa.Limits
	// StageCacheMB caps the replica's one cache in MiB: a content-addressed,
	// byte-budgeted LRU shared by all requests. It holds the rendered
	// reports, which answer an exact (source, options) repeat without
	// analysis, and the pipeline artifacts they were built from
	// (parsed+unrolled programs, sync graph with CLG and ordering tables,
	// per-algorithm verdicts, stall balances) keyed on the source digest,
	// which let a warm source asked for a *different* algorithm run only
	// that detector sweep. 0 means 8 MiB; negative disables caching
	// entirely (every request is analyzed from scratch). The default is
	// small on purpose: the budget only has to hold a source's entries
	// until its next question, and every byte beyond that fills with the
	// entries of sources asked once, which the heap then keeps. Raise it
	// for traffic that returns to a source after many others.
	StageCacheMB int
	// MaxBodyBytes caps the request body; larger requests get HTTP 413.
	// 0 means 4 MiB.
	MaxBodyBytes int64
	// MaxBatch caps the number of programs in one batch request. 0 means 256.
	MaxBatch int
	// DefaultTimeout applies when a request carries no timeoutMs. 0 means 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines. 0 means 5m.
	MaxTimeout time.Duration
	// DeadlineFloor is the smallest propagated deadline budget
	// (X-Deadline-Ms header, stamped by the cluster gateway) worth
	// admitting: a request arriving with less is shed outright with a
	// timeout error and counted in siwa_deadline_shed_total, because its
	// caller's deadline will pass before any useful work completes.
	// 0 means MinAttemptBudget.
	DeadlineFloor time.Duration
	// ShutdownGrace bounds how long Run waits for in-flight requests to
	// drain after its context is cancelled. 0 means 10s.
	ShutdownGrace time.Duration
	// Logger receives one structured record per analyze/batch request
	// (request id, algorithm, cache hit, duration, verdict). Nil disables
	// request logging.
	Logger *slog.Logger
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
	// Off by default: the profiling surface is opt-in.
	EnablePprof bool
	// TraceSample is the head-sampling rate: 1 in N new traces is marked
	// sampled (retained in the debug ring even when fast and healthy).
	// Slow, degraded, and errored requests are retained regardless of the
	// sampling decision. 0 means 1 (sample everything); negative disables
	// sampling, leaving only the always-retain paths.
	TraceSample int
	// SlowThreshold marks requests at least this long as slow: retained in
	// the trace ring and logged at WARN with their stage breakdown. 0
	// means 1s; negative disables the slow path.
	SlowThreshold time.Duration
}

// MinAttemptBudget is the smallest deadline budget worth spending on an
// attempt. It is the replica's default admission floor, and the gateway
// stops retrying and hedging once less than this is left.
const MinAttemptBudget = 5 * time.Millisecond

// analysisParallelism is the sweep worker count inside each analysis:
// serial, because the worker pool already runs Workers analyses at once.
// Verdicts are identical at any setting.
const analysisParallelism = 1

// Normalize fills unset fields with their defaults and returns the result.
func (c Config) Normalize() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		// Negative stays negative (NewPool clamps it to an empty queue),
		// keeping Normalize idempotent.
		c.QueueDepth = 4 * c.Workers
	}
	if c.Limits == (siwa.Limits{}) {
		c.Limits = siwa.DefaultLimits()
	}
	if c.StageCacheMB == 0 {
		c.StageCacheMB = 8
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.DeadlineFloor <= 0 {
		c.DeadlineFloor = MinAttemptBudget
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.TraceSample == 0 {
		c.TraceSample = 1
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = time.Second
	}
	return c
}

// ResolveTimeout resolves a client-requested timeoutMs against a default
// and a clamp. Both tiers call it, so they agree on every request's
// budget.
func ResolveTimeout(timeoutMs int64, def, clamp time.Duration) (time.Duration, error) {
	if timeoutMs < 0 {
		return 0, fmt.Errorf("timeoutMs must be >= 0, got %d", timeoutMs)
	}
	d := def
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	return min(d, clamp), nil
}

// DeadlineHeader carries the caller's remaining deadline budget in
// milliseconds on requests proxied through the cluster gateway. It is a
// duration, not a wall-clock timestamp, so clock skew between gateway and
// replica cannot corrupt it (the gRPC-style convention).
const DeadlineHeader = "X-Deadline-Ms"

// CacheHeader marks an analyze response whose report this replica served
// from its own report cache, with the value CacheHit. The cluster gateway
// keeps such a report for the exact request body, so traffic asked once
// never fills the gateway's cache.
const (
	CacheHeader = "X-Cache"
	CacheHit    = "hit"
)

// deadlineBudget folds the propagated X-Deadline-Ms budget into the
// request's resolved timeout d: the effective deadline is the smaller of
// the two, and a budget below DeadlineFloor is not worth admitting at all
// (shed = true) — the caller will be gone before any work completes, so
// starting it is the distributed analogue of the infinite-wait anomalies
// this system detects. A missing or malformed header leaves d unchanged.
func (c Config) deadlineBudget(r *http.Request, d time.Duration) (time.Duration, bool) {
	h := r.Header.Get(DeadlineHeader)
	if h == "" {
		return d, false
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms < 0 {
		return d, false
	}
	budget := time.Duration(ms) * time.Millisecond
	if budget < c.DeadlineFloor {
		return 0, true
	}
	if budget < d {
		d = budget
	}
	return d, false
}
