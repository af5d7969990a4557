package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzAnalyzeHandler sends each input as the body of both analyze
// endpoints. Whatever the bytes, a non-200 answer must be an error body
// with a code from the taxonomy, sent with that code's Status, and a 200
// batch must decode with every item's code in the taxonomy too.
func FuzzAnalyzeHandler(f *testing.F) {
	for _, seed := range []string{
		`{"source":"task a is begin b.m; accept m; end; task b is begin a.m; accept m; end;"}`,
		`{"source":"task a is begin b.m; end; task b is begin accept m; end;","options":{"exact":true}}`,
		`{"source":"task t is begin oops end;"}`,
		`{"source":"task a is begin end;","optoins":{"algorithm":"pairs"}}`,
		`{"source":"task a is begin end;"} trailing`,
		`{"programs":[{"id":"a","source":"task a is begin end;"},{"id":"b","source":""}]}`,
	} {
		f.Add([]byte(seed))
	}
	h := New(Config{
		MaxBodyBytes:   4096,
		DefaultTimeout: 200 * time.Millisecond,
		MaxTimeout:     200 * time.Millisecond,
	}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/analyze", "/v1/analyze/batch"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code == http.StatusOK {
				if path == "/v1/analyze/batch" {
					var br BatchResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
						t.Fatalf("%s: 200 body does not decode: %v\n%s", path, err, rec.Body)
					}
				}
				continue
			}
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code == 0 {
				t.Fatalf("%s: status %d with a body that is no coded error (%v):\n%s", path, rec.Code, err, rec.Body)
			}
			if want := er.Error.Code.Status(); rec.Code != want {
				t.Fatalf("%s: code %s sent with status %d, want %d", path, er.Error.Code, rec.Code, want)
			}
		}
	})
}
