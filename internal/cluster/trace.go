package cluster

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"sync"

	"repro/internal/obs"
	"repro/internal/service"
)

// slowRoute appends the gateway's slow-request attrs: the retry count,
// the backend that answered, and the route/retry/chunk breakdown of where
// the time went.
func slowRoute(attrs []slog.Attr, root *obs.Span) []slog.Attr {
	retries := 0
	for _, c := range root.Children {
		if c.Name == "retry" {
			retries++
		}
	}
	attrs = append(attrs, slog.Int("retries", retries))
	if backend := root.Attr("backend"); backend != "" {
		attrs = append(attrs, slog.String("backend", backend))
	}
	if breakdown := root.ChildSummary(); breakdown != "" {
		attrs = append(attrs, slog.String("spans", breakdown))
	}
	return attrs
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
// skipped, and failures are ignored, never counted against a backend.
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
			cctx, cancel := context.WithTimeout(ctx, debugScrapeTimeout)
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
