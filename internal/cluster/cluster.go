// Package cluster implements the siwa cluster gateway: a client-side
// routing front end that fans /v1/analyze and /v1/analyze/batch traffic
// out across N siwad-server replicas.
//
// Routing is by program digest on a consistent-hash ring (ring.go): the
// detectors are pure functions of program text, so sending each program
// to the replica that already analyzed it makes the fleet's aggregate
// cache hit rate match a single node's. Replica failure is handled by
// active /healthz + /readyz probing (health.go) plus per-backend circuit
// breakers over transport outcomes (breaker.go); a dead backend's keys
// move to each key's ring successor and everything else stays put.
//
// The proxy path (proxy.go) answers an exact repeat of a single analyze
// body from its own report cache once the owning replica has served that
// body from its cache (reportcache.go), deduplicates identical in-flight
// analyze bodies (single-flight), retries 429/503 responses with bounded
// backoff honoring upstream Retry-After, and otherwise relays upstream
// bodies byte-for-byte — the gateway never rewraps a well-formed error
// from the service error taxonomy. Batches (batch.go) are sharded by digest,
// streamed to each owner in chunks, and merged back in request order;
// items whose replica dies mid-flight come back with the taxonomy code
// "unavailable" instead of failing the batch. cmd/siwad-gateway wires
// this package to flags and signals.
package cluster

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/service"
)

// Config shapes a Gateway. The zero value is not usable directly; call
// Normalize (New does) to fill unset fields.
type Config struct {
	// Addr is the listen address for Gateway.Run ("host:port").
	Addr string
	// Backends are the replica base URLs ("http://host:port"), the ring
	// membership. Order does not affect routing — ring points hash the
	// URL, not the index — so config reordering never reshuffles keys.
	Backends []string
	// HealthInterval is the active probe period. 0 means 2s.
	HealthInterval time.Duration
	// BreakerThreshold is how many consecutive transport failures open a
	// backend's circuit breaker. 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses traffic before
	// allowing a half-open probe. 0 means 2s.
	BreakerCooldown time.Duration
	// MaxRetries bounds additional attempts after an upstream 429/503 on
	// the analyze proxy path (total attempts = MaxRetries+1). Negative
	// disables retries. 0 means 2.
	MaxRetries int
	// DefaultTimeout is the end-to-end deadline applied to requests that
	// carry no timeoutMs of their own. The deadline lives in the request
	// context: retries, backoff sleeps and batch re-scatter rounds all
	// draw on it, and what is left travels to replicas in the
	// X-Deadline-Ms header. 0 means 30s, matching the replica default.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines, and bounds a request
	// that has none (a negative timeoutMs, which the replica rejects).
	// 0 means 5m, matching the replica clamp.
	MaxTimeout time.Duration
	// RetryBudgetRatio is the fraction of a retry token each upstream
	// success earns: retries (and hedges) spend whole tokens from a global
	// bucket plus the target backend's bucket, so the sustained retry
	// ratio can never exceed RetryBudgetRatio and retries shut off during
	// a brownout instead of amplifying it. 0 means 0.1; negative disables
	// retry budgeting (retries bounded only by MaxRetries).
	RetryBudgetRatio float64
	// RetryBudgetBurst is each bucket's capacity and initial fill — the
	// number of retries a cold gateway may spend before earning any.
	// 0 means 10.
	RetryBudgetBurst int
	// HedgePercentile arms hedged requests for single analyzes: when the
	// primary backend has not answered within its observed latency at this
	// percentile (from the per-backend histogram; 100ms until enough
	// samples exist), the gateway issues one speculative attempt to the
	// next ring candidate and takes whichever answers first. 1-99; 0 (the
	// default) or negative disables hedging. Off by default: the hedge
	// lands on a replica that does not own the digest, which analyzes and
	// caches the program a second time.
	HedgePercentile int
	// BatchChunk is how many items of one backend's batch share go into
	// each upstream sub-batch request: small chunks stream a large batch
	// through the fleet and bound the blast radius of a mid-batch replica
	// death to one chunk. 0 means 16.
	BatchChunk int
	// MaxBatch caps the number of programs in one gateway batch request.
	// 0 means 1024.
	MaxBatch int
	// MaxBodyBytes caps inbound request bodies. 0 means 4 MiB.
	MaxBodyBytes int64
	// ShutdownGrace bounds the drain after Run's context is cancelled.
	// 0 means 10s.
	ShutdownGrace time.Duration
	// Logger receives one structured record per proxied request. Nil
	// disables request logging.
	Logger *slog.Logger
	// TraceSample is the head-sampling rate: 1 in N new traces born at the
	// gateway is marked sampled, and the decision propagates to the
	// replicas via the traceparent flags. Slow, degraded, and errored
	// requests are retained regardless. 0 means 1 (sample everything);
	// negative disables sampling.
	TraceSample int
	// SlowThreshold marks gateway requests at least this long as slow:
	// always retained in the trace ring and logged at WARN with backend
	// and retry breakdown. 0 means 1s; negative disables.
	SlowThreshold time.Duration
}

// virtualNodes is the number of ring points per backend.
const virtualNodes = 64

// Normalize fills unset fields with their defaults and returns the result.
func (c Config) Normalize() Config {
	if c.Addr == "" {
		c.Addr = ":8090"
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.MaxRetries == 0 {
		// Negative stays negative (retries reads it as 0), keeping
		// Normalize idempotent.
		c.MaxRetries = 2
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.RetryBudgetRatio == 0 {
		c.RetryBudgetRatio = 0.1
	}
	if c.RetryBudgetBurst <= 0 {
		c.RetryBudgetBurst = 10
	}
	if c.HedgePercentile < 0 {
		c.HedgePercentile = 0
	} else if c.HedgePercentile > 99 {
		c.HedgePercentile = 99
	}
	if c.BatchChunk <= 0 {
		c.BatchChunk = 16
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
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

// retries is the number of extra attempts MaxRetries allows.
func (c Config) retries() int { return max(c.MaxRetries, 0) }

// backend is one replica's runtime state: admin identity, the latest
// active-probe verdict, and the circuit breaker over transport outcomes.
type backend struct {
	name    string // base URL, also the ring point seed
	breaker *Breaker
	retry   *retryBudget // per-backend retry tokens; nil when disabled
	up      atomic.Bool  // latest /healthz + /readyz verdict; starts true
	// instance is the replica instance id the latest successful probe
	// read from /readyz; nil until one has.
	instance atomic.Pointer[string]
}

// eligible reports whether new work may be routed here right now, without
// consuming the breaker's half-open probe slot.
func (b *backend) eligible() bool { return b.up.Load() && b.breaker.Ready() }

// instanceID is the replica instance id last probed at this URL, "" before
// any probe has reported one.
func (b *backend) instanceID() string {
	if p := b.instance.Load(); p != nil {
		return *p
	}
	return ""
}

// Gateway routes analyze traffic across the configured replicas.
// Construct with New; serve with Run, or mount Handler under httptest and
// drive probes via CheckNow/RunChecker. Safe for concurrent use.
type Gateway struct {
	cfg         Config
	ring        *Ring
	backends    []*backend
	metrics     *Metrics
	flights     *memo.Flight[[sha256.Size]byte, *upstream] // in-flight single analyzes by exact request body
	reports     *memo.Cache                                // single-analyze reports by exact request body
	exporter    *obs.Exporter
	client      *http.Client
	edge        *service.Edge
	retryBudget *retryBudget // global retry tokens; nil when disabled
}

// New builds a Gateway over cfg.Backends (at least one required).
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.Normalize()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	seen := map[string]bool{}
	for _, b := range cfg.Backends {
		if seen[b] {
			return nil, fmt.Errorf("cluster: duplicate backend %q", b)
		}
		seen[b] = true
	}
	g := &Gateway{
		cfg:     cfg,
		ring:    NewRing(cfg.Backends, virtualNodes),
		flights: memo.NewFlight[[sha256.Size]byte, *upstream](),
		reports: memo.New(reportCacheBytes),
		// One shared client: keep-alive connection reuse to every replica
		// is what keeps the proxy hop cheap. The fault wrapper is free
		// (one atomic load) until SIWA_FAULTS arms a gateway.net.* point,
		// at which point chaos drills can add latency, reset connections,
		// black-hole requests, or truncate bodies on the upstream wire.
		client: &http.Client{Transport: fault.NewTransport(&http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}, "gateway.net")},
	}
	if cfg.RetryBudgetRatio > 0 {
		g.retryBudget = newRetryBudget(cfg.RetryBudgetBurst, cfg.RetryBudgetRatio)
	}
	for _, name := range cfg.Backends {
		b := &backend{
			name:    name,
			breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		}
		if cfg.RetryBudgetRatio > 0 {
			b.retry = newRetryBudget(cfg.RetryBudgetBurst, cfg.RetryBudgetRatio)
		}
		b.up.Store(true) // optimistic until the first probe says otherwise
		g.backends = append(g.backends, b)
	}
	g.metrics = newMetrics(g)
	g.exporter = obs.NewExporter(obs.RetainedTraces, cfg.TraceSample, cfg.SlowThreshold)
	g.edge = &service.Edge{
		Tier:       "gateway",
		IDFormat:   "gw-%d",
		LogMessage: "gateway request",
		Panics:     &g.metrics.Panics,
		SlowAttrs:  slowRoute,
		Exporter:   g.exporter,
		Logger:     cfg.Logger,
		Grace:      cfg.ShutdownGrace,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", g.handleAnalyze)
	mux.HandleFunc("POST /v1/analyze/batch", g.handleBatch)
	mux.HandleFunc("GET /v1/algorithms", g.handleAlgorithms)
	mux.HandleFunc("GET /v1/fleet/status", g.handleFleetStatus)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /debug/traces", g.exporter.ServeList)
	mux.HandleFunc("GET /debug/traces/{id}", g.handleTraceGet)
	g.edge.Handle(mux)
	return g, nil
}

// Exporter exposes the gateway's trace ring (for tests).
func (g *Gateway) Exporter() *obs.Exporter { return g.exporter }

// Handler returns the gateway's HTTP handler, for mounting or httptest.
func (g *Gateway) Handler() http.Handler { return g.edge }

// Metrics exposes the live counters (shared, not a snapshot).
func (g *Gateway) Metrics() *Metrics { return g.metrics }

// Ring exposes the routing ring (immutable), so tests and tooling can
// predict which backend owns a digest.
func (g *Gateway) Ring() *Ring { return g.ring }

// BreakerState reports backend i's circuit-breaker state.
func (g *Gateway) BreakerState(i int) BreakerState { return g.backends[i].breaker.State() }

// BackendUp reports backend i's latest active-probe verdict.
func (g *Gateway) BackendUp(i int) bool { return g.backends[i].up.Load() }

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports whether the gateway can do useful work: at least
// one backend must be routable. A draining gateway is never ready.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	eligible := 0
	for _, b := range g.backends {
		if b.eligible() {
			eligible++
		}
	}
	status, state := http.StatusOK, "ready"
	switch {
	case g.edge.Draining():
		status, state = http.StatusServiceUnavailable, "draining"
	case eligible == 0:
		status, state = http.StatusServiceUnavailable, "no backend available"
	}
	service.WriteJSON(w, status, map[string]any{
		"status":   state,
		"backends": len(g.backends),
		"eligible": eligible,
	})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.metrics.WriteTo(w, g)
	g.exporter.WriteProm(w, "siwa_gateway")
	obs.WriteRuntimeMetrics(w, "siwa_gateway")
}

// Run listens on the configured address, starts the health checker, and
// serves until ctx is cancelled, then drains like the replica server.
func (g *Gateway) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", g.cfg.Addr)
	if err != nil {
		return err
	}
	return g.Serve(ctx, ln)
}

// Serve is Run on a caller-provided listener. It owns ln and closes it on
// return.
func (g *Gateway) Serve(ctx context.Context, ln net.Listener) error {
	cctx, stopChecker := context.WithCancel(ctx)
	defer stopChecker()
	go g.RunChecker(cctx)
	return g.edge.Serve(ctx, ln)
}
