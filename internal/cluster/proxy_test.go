package cluster

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/service"
)

// TestReadAllSized checks that every hint, right or wrong, yields the
// body byte for byte, however the reader splits it.
func TestReadAllSized(t *testing.T) {
	body := []byte(strings.Repeat("0123456789abcdef", 64)) // 1024 bytes
	wraps := map[string]func(io.Reader) io.Reader{
		"whole":      func(r io.Reader) io.Reader { return r },
		"one-byte":   iotest.OneByteReader,
		"data-error": iotest.DataErrReader,
	}
	for _, hint := range []int64{-1, 0, 1, 512, 1023, 1024, 1025, 4096, 1<<24 + 1} {
		for name, wrap := range wraps {
			got, err := readAllSized(wrap(bytes.NewReader(body)), hint)
			if err != nil {
				t.Fatalf("hint %d, %s reader: %v", hint, name, err)
			}
			if !bytes.Equal(got, body) {
				t.Fatalf("hint %d, %s reader: got %d bytes, want the %d-byte body", hint, name, len(got), len(body))
			}
		}
	}
	if got, err := readAllSized(strings.NewReader(""), 16); err != nil || len(got) != 0 {
		t.Fatalf("empty body: %q %v", got, err)
	}
}

// TestReadAllSizedTruncated checks that a body cut short is an error, not
// a shorter body: net/http reports a Content-Length body that ends early
// as io.ErrUnexpectedEOF, and the gateway must fail that attempt over
// instead of relaying half a response.
func TestReadAllSizedTruncated(t *testing.T) {
	body := []byte(strings.Repeat("0123456789abcdef", 64)) // 1024 bytes
	for _, hint := range []int64{-1, 0, 512, 1024, 4096} {
		r := io.MultiReader(bytes.NewReader(body[:512]), iotest.ErrReader(io.ErrUnexpectedEOF))
		got, err := readAllSized(r, hint)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("hint %d: err=%v after %d bytes, want io.ErrUnexpectedEOF", hint, err, len(got))
		}
	}
}

// TestReadAllSizedOneAllocation pins the point of the hint: a body of
// exactly the hinted length is read into one allocation.
func TestReadAllSizedOneAllocation(t *testing.T) {
	body := []byte(strings.Repeat("x", 1024))
	rd := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		if got, err := readAllSized(rd, int64(len(body))); err != nil || len(got) != len(body) {
			t.Fatalf("read %d bytes, %v", len(got), err)
		}
	})
	if allocs != 1 {
		t.Fatalf("%.0f allocations for an exact-length body, want 1", allocs)
	}
}

// TestReadAllSizedOverLimit keeps the 413 path: MaxBytesReader's error
// comes back unchanged, with or without a hint.
func TestReadAllSizedOverLimit(t *testing.T) {
	for _, hint := range []int64{0, 8, 16} {
		r := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(strings.Repeat("y", 16))), 8)
		_, err := readAllSized(r, hint)
		var tooBig *http.MaxBytesError
		if !errors.As(err, &tooBig) || tooBig.Limit != 8 {
			t.Fatalf("hint %d: err=%v, want *http.MaxBytesError at limit 8", hint, err)
		}
	}
}

// TestGatewayTruncatedReplicaBody drives the same cut through the gateway:
// a replica that drops the connection mid-body fails the attempt, and the
// client gets "unavailable" instead of a 200 carrying half a report.
func TestGatewayTruncatedReplicaBody(t *testing.T) {
	cut := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", "1024")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"report":{"schemaVersion":3,`))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(cut.Close)
	g, gts := newTestGateway(t, []string{cut.URL}, Config{})
	resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: "task main { }"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status=%d body=%s, want 503 for a truncated replica body", resp.StatusCode, data)
	}
	if eb := decodeError(t, data); eb.Code != service.CodeUnavailable {
		t.Fatalf("code=%q, want %q", eb.Code, service.CodeUnavailable)
	}
	if got := g.Metrics().Unavailable.Load(); got == 0 {
		t.Fatal("unavailable counter not incremented")
	}
}
