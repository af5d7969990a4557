package service

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/pprof"

	siwa "repro"
	"repro/internal/obs"
)

// Server is the analysis service: HTTP handlers over one shared cache,
// worker pool, and metrics, behind the request Edge. The cache holds
// both the rendered reports and the pipeline artifacts they were built
// from, under one byte budget. Construct with New; serve with Run (or
// mount Handler in a larger mux). All methods are safe for concurrent
// use.
type Server struct {
	cfg      Config
	cache    *siwa.StageCache // nil when caching is disabled
	pool     *Pool
	metrics  *Metrics
	exporter *obs.Exporter
	edge     *Edge
	instance string // random per Server; reported on /readyz
}

// New builds a Server from cfg (normalized first).
func New(cfg Config) *Server {
	cfg = cfg.Normalize()
	s := &Server{
		cfg:      cfg,
		pool:     NewPool(cfg.Workers, cfg.QueueDepth),
		metrics:  newMetrics(),
		exporter: obs.NewExporter(obs.RetainedTraces, cfg.TraceSample, cfg.SlowThreshold),
		instance: fmt.Sprintf("%016x", rand.Uint64()),
	}
	if cfg.StageCacheMB > 0 {
		s.cache = siwa.NewStageCache(int64(cfg.StageCacheMB) << 20)
	}
	s.edge = &Edge{
		Tier:       "server",
		IDFormat:   "req-%06d",
		LogMessage: "request",
		FaultPoint: "service.handler",
		Panics:     &s.metrics.Panics,
		SlowAttrs:  slowStages,
		Exporter:   s.exporter,
		Logger:     cfg.Logger,
		Grace:      cfg.ShutdownGrace,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/analyze/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.exporter.ServeList)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	if cfg.EnablePprof {
		// The index route also serves the named profiles (heap,
		// goroutine, ...) via its trailing slash.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.edge.Handle(mux)
	return s
}

// slowStages appends the replica's slow-request attrs: the algorithm when
// known, and the per-stage breakdown of the pipeline that actually ran.
func slowStages(attrs []slog.Attr, root *obs.Span) []slog.Attr {
	if algo := root.Attr("algorithm"); algo != "" {
		attrs = append(attrs, slog.String("algorithm", algo))
	}
	breakdown := root.Child("analyze").ChildSummary()
	if breakdown == "" {
		breakdown = root.ChildSummary()
	}
	if breakdown != "" {
		attrs = append(attrs, slog.String("stages", breakdown))
	}
	return attrs
}

// Exporter exposes the trace ring (for tests and embedding servers).
func (s *Server) Exporter() *obs.Exporter { return s.exporter }

// Handler returns the service's HTTP handler, for mounting or httptest.
func (s *Server) Handler() http.Handler { return s.edge }

// Metrics exposes the live counters (shared, not a snapshot).
func (s *Server) Metrics() *Metrics { return s.metrics }

// CacheStats counts report lookups in the replica's cache.
type CacheStats struct {
	Hits      uint64 // report lookups answered from the cache
	Misses    uint64 // report lookups that went on to analyze
	Evictions uint64 // entries of any kind the byte budget evicted
}

// CacheStats snapshots the report-lookup counters.
func (s *Server) CacheStats() CacheStats {
	return CacheStats{
		Hits:      s.metrics.CacheHits.Load(),
		Misses:    s.metrics.CacheMisses.Load(),
		Evictions: s.cache.Stats().Evictions,
	}
}

// StageCacheStats snapshots the cache's own counters, which cover reports
// and artifacts alike (zero when caching is disabled).
func (s *Server) StageCacheStats() siwa.StageCacheStats { return s.cache.Stats() }

// Run listens on the configured address and serves until ctx is
// cancelled, then drains (see Edge.Serve).
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is Run on a caller-provided listener (tests use a :0 listener to
// learn the port). It owns ln and closes it on return.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error { return s.edge.Serve(ctx, ln) }
