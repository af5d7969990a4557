package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sync/atomic"
	"time"

	siwa "repro"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Server is the analysis service: HTTP handlers over a shared result
// cache, worker pool, and metrics. Construct with New; serve with Run (or
// mount Handler in a larger mux). All methods are safe for concurrent use.
type Server struct {
	cfg        Config
	cache      *Cache           // nil when result caching is disabled
	stageCache *siwa.StageCache // nil when stage caching is disabled
	pool       *Pool
	metrics    *Metrics
	exporter   *obs.Exporter
	handler    http.Handler
	reqID      atomic.Uint64
	draining   atomic.Bool // graceful shutdown has begun; terminal
}

// New builds a Server from cfg (normalized first).
func New(cfg Config) *Server {
	cfg = cfg.Normalize()
	s := &Server{
		cfg:     cfg,
		pool:    NewPool(cfg.Workers, cfg.QueueDepth),
		metrics: newMetrics(),
	}
	if cfg.CacheEntries > 0 {
		s.cache = NewCache(cfg.CacheEntries)
	}
	if cfg.StageCacheMB > 0 {
		s.stageCache = siwa.NewStageCache(int64(cfg.StageCacheMB) << 20)
	}
	sampleN, slow := cfg.TraceSample, cfg.SlowThreshold
	if sampleN < 0 {
		sampleN = 0 // sampling disabled: only slow/degraded/errored retained
	}
	if slow < 0 {
		slow = 0 // slow-path disabled
	}
	s.exporter = obs.NewExporter(cfg.TraceRing, sampleN, slow)
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
	// Tracing wraps panic recovery so the 500 a recovered panic writes is
	// observed by the status recorder and the trace is retained as errored.
	s.handler = s.withTracing(s.recoverPanics(s.withRequestID(mux)))
	return s
}

// Exporter exposes the trace ring (for tests and embedding servers).
func (s *Server) Exporter() *obs.Exporter { return s.exporter }

// requestIDKey carries the per-request correlation id in the context.
type requestIDKey struct{}

// RequestID returns the correlation id minted (or accepted) for the
// request, or "" outside a request served by this package.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// validRequestID accepts inbound X-Request-Id values that are safe to
// echo and log: 1-128 printable ASCII characters with no spaces. Anything
// else (including absence) is replaced by a generated id, so a hostile
// header can never inject log records or response-header garbage.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// withRequestID assigns every request its correlation id: an inbound
// X-Request-Id header is accepted (so a gateway in front can trace a
// request end to end), otherwise one is generated. The id is echoed on
// the response — before the handler runs, so even panic-recovery 500s
// carry it — and stored in the context for the request log record.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !validRequestID(id) {
			id = s.nextRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
	})
}

// recoverPanics is the outermost middleware: a panic anywhere on the
// request goroutine (handler bugs, injected faults, pipeline panics that
// escaped the library's own recovery) becomes a structured 500 instead
// of killing the connection, and the process keeps serving.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				// The stdlib sentinel for deliberately aborted responses.
				panic(rec)
			}
			s.metrics.Panics.Add(1)
			if s.cfg.Logger != nil {
				s.cfg.Logger.LogAttrs(r.Context(), slog.LevelError, "panic recovered",
					slog.String("endpoint", r.URL.Path),
					slog.String("panic", fmt.Sprint(rec)),
					slog.String("stack", string(debug.Stack())))
			}
			// Best effort: if the handler already wrote a status line this
			// write is a no-op on the header and garbage on the body, but
			// the usual case (panic before any write) gets a clean 500.
			WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: ErrorBody{
				Code:    CodeInternal,
				Message: fmt.Sprintf("internal error: %v", rec),
				TraceID: w.Header().Get("X-Trace-Id"),
			}})
		}()
		if err := fault.Inject("service.handler"); err != nil {
			WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: ErrorBody{
				Code:    CodeInternal,
				Message: err.Error(),
				TraceID: w.Header().Get("X-Trace-Id"),
			}})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Handler returns the service's HTTP handler, for mounting or httptest.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics exposes the live counters (shared, not a snapshot).
func (s *Server) Metrics() *Metrics { return s.metrics }

// CacheStats snapshots the result-cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// StageCacheStats snapshots the stage-cache counters (zero when the
// stage cache is disabled).
func (s *Server) StageCacheStats() siwa.StageCacheStats { return s.stageCache.Stats() }

// Run listens on the configured address and serves until ctx is
// cancelled, then shuts down gracefully: the listener closes, in-flight
// requests drain for up to ShutdownGrace, and Run returns nil on a clean
// drain (or the shutdown error if the grace period expired).
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is Run on a caller-provided listener (tests use a :0 listener to
// learn the port). It owns ln and closes it on return.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip readiness before draining: a load balancer polling /readyz
	// (e.g. the cluster gateway) stops routing new work here while
	// in-flight requests finish. Draining is terminal — the listener is
	// about to close and never reopens on this Server.
	s.draining.Store(true)
	//lint:ignore ctxflow ctx is already done here; the grace window must outlive it to drain in-flight requests
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	err := hs.Shutdown(sctx)
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}
