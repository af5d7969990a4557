package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// postWithDeadline posts an analyze request carrying an X-Deadline-Ms
// budget header, the way the cluster gateway stamps proxied requests.
func postWithDeadline(t *testing.T, url, deadline string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if deadline != "" {
		req.Header.Set(DeadlineHeader, deadline)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestDeadlineBudgetResolution covers the header-folding arithmetic in
// isolation: the effective deadline is the smaller of the resolved
// timeout and the propagated budget, a sub-floor budget sheds, and a
// missing or malformed header changes nothing.
func TestDeadlineBudgetResolution(t *testing.T) {
	cfg := Config{}.Normalize() // floor 5ms
	mk := func(v string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/analyze", nil)
		if v != "" {
			r.Header.Set(DeadlineHeader, v)
		}
		return r
	}
	cases := []struct {
		header string
		want   time.Duration
		shed   bool
	}{
		{"", time.Second, false},
		{"250", 250 * time.Millisecond, false}, // budget below timeout wins
		{"2000", time.Second, false},           // budget above timeout: timeout stands
		{"2", 0, true},                         // below the 5ms floor: dead on arrival
		{"0", 0, true},                         // no budget at all
		{"-40", time.Second, false},            // negative: malformed, ignored
		{"soon", time.Second, false},           // non-numeric: ignored
	}
	for _, tc := range cases {
		d, shed := cfg.deadlineBudget(mk(tc.header), time.Second)
		if d != tc.want || shed != tc.shed {
			t.Errorf("deadlineBudget(header=%q) = (%v, %v), want (%v, %v)",
				tc.header, d, shed, tc.want, tc.shed)
		}
	}
}

// TestDeadlineHeaderShedsBelowFloor drives the whole handler path: a
// request whose propagated budget is under the admission floor is
// refused before any analysis starts, with the timeout taxonomy code,
// its own counter — and crucially NOT the request-error counter, because
// a dead-on-arrival deadline is a load condition, not a client bug.
func TestDeadlineHeaderShedsBelowFloor(t *testing.T) {
	s, ts := newTestServer(t, Config{DeadlineFloor: 50 * time.Millisecond})
	body, err := json.Marshal(AnalyzeRequest{Source: workload.Ring(3).String()})
	if err != nil {
		t.Fatal(err)
	}

	resp, data := postWithDeadline(t, ts.URL+"/v1/analyze", "10", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("bad error body: %v\n%s", err, data)
	}
	if er.Error.Code != CodeTimeout {
		t.Fatalf("code=%q, want %q", er.Error.Code, CodeTimeout)
	}
	if !strings.Contains(er.Error.Message, "below admission floor") {
		t.Fatalf("message %q does not explain the shed", er.Error.Message)
	}
	if got := s.Metrics().DeadlineShed.Load(); got != 1 {
		t.Fatalf("deadline_shed=%d, want 1", got)
	}
	if got := s.Metrics().Analyses.Load(); got != 0 {
		t.Fatalf("analyses=%d; refused work must never start", got)
	}
	if got := s.Metrics().Errors.Load(); got != 0 {
		t.Fatalf("request_errors=%d; a deadline shed is not a client error", got)
	}

	// The same floor guards the batch endpoint.
	bbody, _ := json.Marshal(BatchRequest{Programs: []BatchProgram{{Source: workload.Ring(4).String()}}})
	bresp, bdata := postWithDeadline(t, ts.URL+"/v1/analyze/batch", "10", bbody)
	if bresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch status=%d body=%s", bresp.StatusCode, bdata)
	}
	if got := s.Metrics().DeadlineShed.Load(); got != 2 {
		t.Fatalf("deadline_shed=%d after batch, want 2", got)
	}

	// An ample budget clears admission and the analysis runs.
	resp2, data2 := postWithDeadline(t, ts.URL+"/v1/analyze", "60000", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("ample budget: status=%d body=%s", resp2.StatusCode, data2)
	}
	if got := s.Metrics().Analyses.Load(); got != 1 {
		t.Fatalf("analyses=%d, want 1", got)
	}

	// A malformed header is ignored rather than shed: the request runs
	// under its ordinary timeout.
	resp3, data3 := postWithDeadline(t, ts.URL+"/v1/analyze", "garbage", body)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("malformed header: status=%d body=%s", resp3.StatusCode, data3)
	}

	// The dedicated counter is exported.
	code, text := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status=%d", code)
	}
	if !strings.Contains(text, "siwa_deadline_shed_total 2") {
		t.Fatal("exposition missing siwa_deadline_shed_total 2")
	}
}
