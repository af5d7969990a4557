package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
	"repro/internal/workload"
)

// BenchmarkGatewayProxyOverhead measures what the gateway adds on the hot
// path for a program the replica has cached. direct requests it from the
// replica over HTTP. gateway-hit sends the same body through the
// gateway's handler (invoked in process, so it has no network hop at
// all): the gateway answers from its report cache. gateway-forward sends
// bodies that differ only in timeoutMs, so the replica still answers from
// its cache but the gateway cannot: that variant, like direct, has
// exactly one real network hop, and the delta is gateway software
// (lookup, decode, routing, single-flight, relay, and storing the
// replica's hit, as a body's first repeat does).
func BenchmarkGatewayProxyOverhead(b *testing.B) {
	s := service.New(service.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g, err := New(Config{Backends: []string{ts.URL}})
	if err != nil {
		b.Fatal(err)
	}
	req := service.AnalyzeRequest{Source: workload.Ring(8).String()}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	// Seed the replica cache so every measured request is a replica hit.
	warm, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK {
		b.Fatalf("warmup status=%d", warm.StatusCode)
	}
	serve := func(b *testing.B, g *Gateway, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status=%d body=%s", rec.Code, rec.Body.String())
		}
	}
	// forwardBodies returns n bodies that differ from body, and from every
	// body it returned before, only in timeoutMs.
	sent := 0
	forwardBodies := func(b *testing.B, n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			r := req
			r.TimeoutMs = int64(60_000 + sent%200_000)
			sent++
			var err error
			if out[i], err = json.Marshal(r); err != nil {
				b.Fatal(err)
			}
		}
		return out
	}

	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status=%d", resp.StatusCode)
			}
		}
	})
	// One request through the gateway meets the replica's hit and stores
	// it; every measured request is then a gateway hit.
	serve(b, g, body)
	b.Run("gateway-hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve(b, g, body)
		}
		if g.Metrics().ReportHits.Load() < uint64(b.N) {
			b.Fatalf("%d gateway hits for %d requests", g.Metrics().ReportHits.Load(), b.N)
		}
	})
	b.Run("gateway-forward", func(b *testing.B) {
		bodies := forwardBodies(b, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b, g, bodies[i])
		}
	})
	// The untraced forward variant isolates the tracing middleware +
	// exporter's marginal cost on the proxy path. Both forward variants
	// pay a real network hop, so run-to-run variance dominates small
	// deltas here; the tight <2% exporter budget is enforced by the
	// in-process service-tier pair (BenchmarkServiceCacheHit vs
	// BenchmarkServiceCacheHitUntraced).
	gu, err := New(Config{Backends: []string{ts.URL}, TraceSample: -1, SlowThreshold: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("gateway-forward-untraced", func(b *testing.B) {
		bodies := forwardBodies(b, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b, gu, bodies[i])
		}
	})
}
