package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/workload"
)

// The cache-hit/miss pair quantifies the content-addressed cache's win on
// a workload.Pipeline(8, 4) program: a hit is one SHA-256 plus an LRU
// lookup, a miss (caching disabled) pays parse + unroll + sync graph +
// detection.
func benchAnalyze(b *testing.B, cfg Config) {
	b.Helper()
	s := New(cfg)
	body, err := json.Marshal(AnalyzeRequest{
		Source:  workload.Pipeline(8, 4).String(),
		Options: &WireOptions{Algorithm: "pairs"},
	})
	if err != nil {
		b.Fatal(err)
	}
	do := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status=%d body=%s", rec.Code, rec.Body.Bytes())
		}
	}
	do() // warm the cache (a no-op when caching is disabled)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
}

func BenchmarkServiceCacheHit(b *testing.B)  { benchAnalyze(b, Config{}) }
func BenchmarkServiceCacheMiss(b *testing.B) { benchAnalyze(b, Config{StageCacheMB: -1}) }

// The traced variant bounds the tracer's cost against CacheMiss: every
// analysis records the full span tree and feeds the stage histograms.
func BenchmarkServiceCacheMissTraced(b *testing.B) {
	benchAnalyze(b, Config{StageCacheMB: -1, TraceAll: true})
}

// The untraced variant turns the trace exporter fully off (no sampling,
// no slow retention, no export). Comparing against BenchmarkServiceCacheHit
// — which exports every request at the default sample rate — bounds the
// exporter's hot-path overhead; the budget is <2%.
func BenchmarkServiceCacheHitUntraced(b *testing.B) {
	benchAnalyze(b, Config{TraceSample: -1, SlowThreshold: -1})
}
