package service

import (
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

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
// the request's root span, continuing an inbound W3C traceparent (so the
// gateway's request span becomes this root's parent) or minting a fresh
// trace; echoes X-Trace-Id; and on completion exports the finished tree
// to the debug ring and emits the slow-request WARN line. Probe and debug
// endpoints (/healthz, /readyz, /metrics, /debug/...) are not traced.
//
// A malformed traceparent is never an error: per the W3C spec the request
// proceeds with a fresh root trace.
func (s *Server) withTracing(next http.Handler) http.Handler {
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
			sampled = s.exporter.SampleNext()
		}
		root := tracer.Start("server " + r.URL.Path)
		th := &obs.TraceHandle{Tracer: tracer, Root: root, Sampled: sampled}
		w.Header().Set("X-Trace-Id", root.TraceID.String())
		sr := &statusRecorder{ResponseWriter: w}
		defer func() {
			root.End()
			s.exporter.Export(root, sampled, sr.status)
			s.logSlowRequest(r, root, w.Header().Get("X-Request-Id"))
		}()
		next.ServeHTTP(sr, r.WithContext(obs.ContextWithTrace(r.Context(), th)))
	})
}

// logSlowRequest emits the WARN line for requests over the slow
// threshold: trace id, endpoint, algorithm when known, and the per-stage
// breakdown of the pipeline that actually ran.
func (s *Server) logSlowRequest(r *http.Request, root *obs.Span, requestID string) {
	slow := s.exporter.SlowThreshold()
	if slow <= 0 || root == nil || root.Dur < slow || s.cfg.Logger == nil {
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
	s.cfg.Logger.LogAttrs(r.Context(), slog.LevelWarn, "slow request", attrs...)
}

// handleTraceGet serves GET /debug/traces/{id}: every retained record
// for the trace id, oldest first.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	recs := s.exporter.Get(id)
	if len(recs) == 0 {
		WriteTraceNotFound(w, id)
		return
	}
	obs.WriteTraceJSON(w, http.StatusOK, obs.TraceLookup{TraceID: id, Records: recs})
}

// WriteTraceNotFound writes the 404 that both tiers send for a trace id
// they hold no record of, indented like every /debug/traces body.
func WriteTraceNotFound(w http.ResponseWriter, id string) {
	obs.WriteTraceJSON(w, http.StatusNotFound, ErrorResponse{Error: ErrorBody{
		Code:    CodeNotFound,
		Message: fmt.Sprintf("no retained trace %q", id),
	}})
}
