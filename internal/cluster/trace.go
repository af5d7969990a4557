package cluster

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// statusRecorder captures the response status for the trace exporter's
// retention decision.
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

// withTracing opens the gateway's root span per API request — this is
// where fleet traces are usually born, so the head-sampling decision is
// made here and propagated to the replicas via the traceparent flags. An
// inbound traceparent (a client already tracing) is continued instead.
// X-Trace-Id is echoed, and the finished tree goes to the debug ring.
func (g *Gateway) withTracing(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		tracer := obs.NewTracer()
		var sampled bool
		if tid, parent, remoteSampled, ok := obs.ExtractTraceparent(r.Header); ok {
			tracer.SetRemote(tid, parent)
			sampled = remoteSampled
		} else {
			sampled = g.exporter.SampleNext()
		}
		root := tracer.Start("gateway " + r.URL.Path)
		th := &obs.TraceHandle{Tracer: tracer, Root: root, Sampled: sampled}
		w.Header().Set("X-Trace-Id", root.TraceID.String())
		sr := &statusRecorder{ResponseWriter: w}
		defer func() {
			root.End()
			g.exporter.Export(root, sampled, sr.status)
			g.logSlowRequest(r, root, w.Header().Get("X-Request-Id"))
		}()
		next.ServeHTTP(sr, r.WithContext(obs.ContextWithTrace(r.Context(), th)))
	})
}

// logSlowRequest emits the gateway's slow-request WARN line: trace id,
// backend, and the route/retry/chunk breakdown of where the time went.
func (g *Gateway) logSlowRequest(r *http.Request, root *obs.Span, requestID string) {
	slow := g.exporter.SlowThreshold()
	if slow <= 0 || root == nil || root.Dur < slow || g.cfg.Logger == nil {
		return
	}
	retries := 0
	for _, c := range root.Children {
		if c.Name == "retry" {
			retries++
		}
	}
	attrs := []slog.Attr{
		slog.String("trace", root.TraceID.String()),
		slog.String("id", requestID),
		slog.String("endpoint", r.URL.Path),
		slog.Float64("ms", float64(root.Dur)/float64(time.Millisecond)),
		slog.Int("retries", retries),
	}
	if backend := root.Attr("backend"); backend != "" {
		attrs = append(attrs, slog.String("backend", backend))
	}
	if breakdown := root.ChildSummary(); breakdown != "" {
		attrs = append(attrs, slog.String("spans", breakdown))
	}
	g.cfg.Logger.LogAttrs(r.Context(), slog.LevelWarn, "slow request", attrs...)
}

// handleTraceGet serves GET /debug/traces/{id} with cross-process
// stitching: the gateway's own retained records are returned with each
// replica's records for the same trace grafted under the gateway span
// that parented them (matched by parentSpanId), so one response shows
// the full request tree — gateway root, routing spans, and the replica's
// per-stage pipeline spans as descendants.
func (g *Gateway) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	recs := g.exporter.Get(id) // deep copies: grafting never mutates the ring
	if len(recs) == 0 {
		service.WriteTraceNotFound(w, id)
		return
	}
	// Index every span of our own records by span id, so replica roots can
	// find the gateway span that parented them.
	byID := make(map[string]*obs.SpanJSON)
	for _, rec := range recs {
		rec.Root.Walk(func(sp *obs.SpanJSON) {
			if sp.SpanID != "" {
				byID[sp.SpanID] = sp
			}
		})
	}
	for _, remote := range g.fetchBackendTraces(r.Context(), id) {
		root := remote.Root
		if root == nil {
			continue
		}
		if parent, ok := byID[root.ParentSpanID]; ok && root.ParentSpanID != "" {
			parent.Children = append(parent.Children, root)
			continue
		}
		// No matching gateway span (e.g. the parent request was sampled
		// away here but retained on the replica): keep the record whole.
		recs = append(recs, remote)
	}
	obs.WriteTraceJSON(w, http.StatusOK, obs.TraceLookup{TraceID: id, Records: recs})
}

// fetchBackendTraces collects every replica's retained records for one
// trace id. Debug traffic: short per-backend timeout, down backends are
// skipped, failures are ignored, and the breakers are never fed.
func (g *Gateway) fetchBackendTraces(ctx context.Context, id string) []*obs.ExportedTrace {
	var (
		mu  sync.Mutex
		out []*obs.ExportedTrace
		wg  sync.WaitGroup
	)
	for _, b := range g.backends {
		if !b.up.Load() {
			continue
		}
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(cctx, http.MethodGet, b.name+"/debug/traces/"+id, nil)
			if err != nil {
				return
			}
			resp, err := g.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var lookup obs.TraceLookup
			if err := json.NewDecoder(resp.Body).Decode(&lookup); err != nil {
				return
			}
			mu.Lock()
			out = append(out, lookup.Records...)
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	obs.SortRecordsByStart(out)
	return out
}
