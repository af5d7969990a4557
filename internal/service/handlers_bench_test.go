package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// nopResponseWriter discards the body so the measurements below see only
// WriteJSON's own allocations, not a recorder's buffer growth.
type nopResponseWriter struct {
	h http.Header
}

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) WriteHeader(int)             {}
func (w *nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

// benchPayload is a realistic analyze response: a few KiB of report, the
// shape every /v1/analyze reply takes.
func benchPayload() AnalyzeResponse {
	return AnalyzeResponse{
		Report:    json.RawMessage(`{"schemaVersion":3,"tasks":4,"rendezvousNodes":8,"deadlock":{"algorithm":"naive","mayDeadlock":true,"witnesses":[["` + strings.Repeat("t0.e0 ", 40) + `"]],"hypotheses":12,"sccRuns":3},"deadlockFree":false,"stallFree":true}`),
		Cached:    false,
		ElapsedMs: 1.25,
	}
}

// TestWriteJSONAllocs pins the steady-state allocation count of the pooled
// response writer. The body is appended into a buffer from wirePool, so
// per-call allocations are the boxed response, the two header slices and
// the Content-Length string — no encoder and no fresh multi-KiB buffer
// per response. If this bound breaks, the pool stopped being reused or
// the analyze response fell back to reflective encoding.
func TestWriteJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	w := &nopResponseWriter{h: make(http.Header)}
	payload := benchPayload()
	// Warm the pool so the first Get does not count a fresh buffer.
	WriteJSON(w, http.StatusOK, payload)
	avg := testing.AllocsPerRun(200, func() {
		WriteJSON(w, http.StatusOK, payload)
	})
	const maxAllocs = 4
	if avg > maxAllocs {
		t.Errorf("WriteJSON allocates %.1f objects per call, want <= %d", avg, maxAllocs)
	}
}

func BenchmarkWriteJSON(b *testing.B) {
	w := &nopResponseWriter{h: make(http.Header)}
	payload := benchPayload()
	WriteJSON(w, http.StatusOK, payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WriteJSON(w, http.StatusOK, payload)
	}
}
