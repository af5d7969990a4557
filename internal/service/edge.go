package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Edge is the request edge that both tiers put in front of their routes:
// a replica's Server and the cluster gateway each configure one. On
// every request it opens the root span and exports the finished trace,
// assigns the correlation id, and turns a panic into a structured 500; it
// also writes the per-request log record and drains in-flight requests
// on shutdown. A tier sets the exported fields, then calls Handle before
// serving.
type Edge struct {
	// Tier prefixes each root span's name ("server", "gateway").
	Tier string
	// IDFormat renders a minted request id from a per-edge counter.
	IDFormat string
	// LogMessage is the message of the per-request log record.
	LogMessage string
	// FaultPoint, when set, is injected on the analyze routes
	// (/v1/analyze and /v1/analyze/batch) after the request id is set, so
	// an armed fault answers 500 internal carrying the request's id while
	// probes, metrics and debug routes stay up.
	FaultPoint string
	// Panics counts the panics the edge recovers.
	Panics *atomic.Uint64
	// SlowAttrs appends the tier's own attrs to the slow-request line.
	SlowAttrs func(attrs []slog.Attr, root *obs.Span) []slog.Attr
	// Exporter receives every finished trace.
	Exporter *obs.Exporter
	// Logger receives request, slow-request and panic records; nil
	// disables them.
	Logger *slog.Logger
	// Grace bounds how long Serve waits for in-flight requests to drain.
	Grace time.Duration

	handler  http.Handler
	ids      atomic.Uint64
	draining atomic.Bool
}

// Handle installs routes behind the edge. Tracing wraps panic recovery so
// the 500 a recovered panic writes is observed by the status recorder and
// the trace is retained as errored.
func (e *Edge) Handle(routes http.Handler) {
	e.handler = e.withTracing(e.recoverPanics(e.withRequestID(routes)))
}

// ServeHTTP serves one request through the edge.
func (e *Edge) ServeHTTP(w http.ResponseWriter, r *http.Request) { e.handler.ServeHTTP(w, r) }

// Draining reports whether Serve has begun its graceful drain. Draining
// is terminal: the listener is about to close and never reopens.
func (e *Edge) Draining() bool { return e.draining.Load() }

// statusRecorder captures the response status for the trace exporter's
// retention decision (errored requests are always retained).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// withTracing is the outermost middleware on the API surface: it opens
// the request's root span, continuing an inbound W3C traceparent (so a
// caller's span becomes this root's parent, and the caller's sampling
// decision holds) or minting a fresh trace; echoes X-Trace-Id; and on
// completion exports the finished tree to the debug ring and emits the
// slow-request WARN line. Probe and debug endpoints (/healthz, /readyz,
// /metrics, /debug/...) are not traced.
//
// A malformed traceparent is never an error: per the W3C spec the request
// proceeds with a fresh root trace.
func (e *Edge) withTracing(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		tracer := obs.NewTracer()
		var sampled bool
		if tid, parent, remoteSampled, ok := obs.ExtractTraceparent(r.Header); ok {
			tracer.SetRemote(tid, parent)
			sampled = remoteSampled // honor the caller's head decision
		} else {
			sampled = e.Exporter.SampleNext()
		}
		root := tracer.Start(e.Tier + " " + r.URL.Path)
		th := &obs.TraceHandle{Tracer: tracer, Root: root, Sampled: sampled}
		w.Header().Set("X-Trace-Id", root.TraceID.String())
		sr := &statusRecorder{ResponseWriter: w}
		defer func() {
			root.End()
			e.Exporter.Export(root, sampled, sr.status)
			e.logSlowRequest(r, root, w.Header().Get("X-Request-Id"))
		}()
		next.ServeHTTP(sr, r.WithContext(obs.ContextWithTrace(r.Context(), th)))
	})
}

// logSlowRequest emits the WARN line for requests over the slow
// threshold: trace id, request id, endpoint and duration, then the tier's
// own breakdown of where the time went.
func (e *Edge) logSlowRequest(r *http.Request, root *obs.Span, requestID string) {
	slow := e.Exporter.SlowThreshold()
	if slow <= 0 || root == nil || root.Dur < slow || e.Logger == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("trace", root.TraceID.String()),
		// withTracing wraps withRequestID, so the id is not in this
		// request's context — read the echoed response header instead.
		slog.String("id", requestID),
		slog.String("endpoint", r.URL.Path),
		slog.Float64("ms", float64(root.Dur)/float64(time.Millisecond)),
	}
	e.Logger.LogAttrs(r.Context(), slog.LevelWarn, "slow request", e.SlowAttrs(attrs, root)...)
}

// recoverPanics turns a panic anywhere on the request goroutine (handler
// bugs, injected faults, pipeline panics that escaped the library's own
// recovery) into a structured 500 instead of killing the connection, and
// the process keeps serving.
func (e *Edge) recoverPanics(next http.Handler) http.Handler {
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
			e.Panics.Add(1)
			if e.Logger != nil {
				e.Logger.LogAttrs(r.Context(), slog.LevelError, "panic recovered",
					slog.String("endpoint", r.URL.Path),
					slog.String("panic", fmt.Sprint(rec)),
					slog.String("stack", string(debug.Stack())))
			}
			// Best effort: if the handler already wrote a status line this
			// write is a no-op on the header and garbage on the body, but
			// the usual case (panic before any write) gets a clean 500.
			WriteError(w, CodeInternal, "internal error: %v", rec)
		}()
		next.ServeHTTP(w, r)
	})
}

// requestIDKey carries the per-request correlation id in the context.
type requestIDKey struct{}

// RequestID returns the correlation id minted (or accepted) for the
// request, or "" outside a request served through an Edge.
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
func (e *Edge) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !validRequestID(id) {
			id = fmt.Sprintf(e.IDFormat, e.ids.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		if e.FaultPoint != "" && (r.URL.Path == "/v1/analyze" || r.URL.Path == "/v1/analyze/batch") {
			if err := fault.Inject(e.FaultPoint); err != nil {
				WriteError(w, CodeInternal, "%v", err)
				return
			}
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
	})
}

// LogRequest emits one structured record per request when logging is
// configured. attrs supplements the common fields (request id, endpoint,
// status, duration, trace id).
func (e *Edge) LogRequest(r *http.Request, endpoint string, status int, start time.Time, attrs ...slog.Attr) {
	if e.Logger == nil {
		return
	}
	common := []slog.Attr{
		slog.String("id", RequestID(r.Context())),
		slog.String("endpoint", endpoint),
		slog.Int("status", status),
		slog.Float64("ms", float64(time.Since(start))/float64(time.Millisecond)),
	}
	if trace := obs.TraceFromContext(r.Context()).TraceIDString(); trace != "" {
		common = append(common, slog.String("trace", trace))
	}
	e.Logger.LogAttrs(r.Context(), slog.LevelInfo, e.LogMessage, append(common, attrs...)...)
}

// WriteError writes the error body for code with the code's status,
// naming the request's trace when one was opened.
func WriteError(w http.ResponseWriter, code Code, format string, args ...any) {
	WriteJSON(w, code.Status(), ErrorResponse{Error: ErrorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
		TraceID: w.Header().Get("X-Trace-Id"),
	}})
}

// Serve serves the edge on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight requests drain for up to
// Grace, and Serve returns nil on a clean drain (or the shutdown error if
// the grace period expired). It owns ln and closes it on return.
func (e *Edge) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           e,
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
	// in-flight requests finish.
	e.draining.Store(true)
	//lint:ignore ctxflow ctx is already done here; the grace window must outlive it to drain in-flight requests
	sctx, cancel := context.WithTimeout(context.Background(), e.Grace)
	defer cancel()
	err := hs.Shutdown(sctx)
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}
