package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

var hexTraceID = regexp.MustCompile(`^[0-9a-f]{32}$`)

// postRaw posts a body with extra headers and returns the response.
func postRaw(t *testing.T, url string, body []byte, headers map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func analyzeBody(t *testing.T, src string) []byte {
	t.Helper()
	b, err := json.Marshal(AnalyzeRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTraceExportedAndRetrievable is the server-side acceptance path: one
// analyze yields an X-Trace-Id that resolves on /debug/traces/{id} to a
// record whose root is the request span and whose analyze child carries
// the per-stage pipeline spans.
func TestTraceExportedAndRetrievable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postRaw(t, ts.URL+"/v1/analyze", analyzeBody(t, workload.Ring(4).String()), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")
	if !hexTraceID.MatchString(id) {
		t.Fatalf("X-Trace-Id %q is not a 32-hex trace id", id)
	}

	code, body := getBody(t, ts.URL+"/debug/traces/"+id)
	if code != http.StatusOK {
		t.Fatalf("trace lookup status=%d:\n%s", code, body)
	}
	var lookup obs.TraceLookup
	if err := json.Unmarshal([]byte(body), &lookup); err != nil {
		t.Fatal(err)
	}
	if lookup.TraceID != id || len(lookup.Records) != 1 {
		t.Fatalf("lookup: %+v", lookup)
	}
	rec := lookup.Records[0]
	if rec.TraceID != id || rec.Reason != obs.RetainSampled || rec.Status != http.StatusOK {
		t.Fatalf("record: %+v", rec)
	}
	if rec.Root.Name != "server /v1/analyze" || rec.Root.TraceID != id {
		t.Fatalf("root span: %+v", rec.Root)
	}
	// The pipeline root is a child of the request span, carrying stages.
	var analyzeSpan *obs.SpanJSON
	for _, c := range rec.Root.Children {
		if c.Name == "analyze" {
			analyzeSpan = c
		}
	}
	if analyzeSpan == nil {
		t.Fatalf("no analyze child under request root: %+v", rec.Root)
	}
	stages := map[string]bool{}
	for _, c := range analyzeSpan.Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"sync-graph", "clg", "detect:naive", "stall"} {
		if !stages[want] {
			t.Fatalf("stage %q missing: %v", want, stages)
		}
	}
	if rec.Root.Attrs["algorithm"] != "naive" {
		t.Fatalf("algorithm attr: %+v", rec.Root.Attrs)
	}

	// The listing names the same trace, newest first.
	code, body = getBody(t, ts.URL+"/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("list status=%d", code)
	}
	var list obs.TraceList
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 || list.Traces[0].TraceID != id || list.Traces[0].Spans < 5 {
		t.Fatalf("list: %+v", list)
	}
}

// TestTraceparentContinuation: an inbound W3C traceparent makes the
// server's root span a child of the caller's span, same trace id.
func TestTraceparentContinuation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tid, parent := obs.NewTraceID(), obs.NewSpanID()
	resp := postRaw(t, ts.URL+"/v1/analyze", analyzeBody(t, workload.Ring(4).String()),
		map[string]string{obs.TraceparentHeader: obs.FormatTraceparent(tid, parent, true)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != tid.String() {
		t.Fatalf("X-Trace-Id %q, want inbound trace id %q", got, tid)
	}
	code, body := getBody(t, ts.URL+"/debug/traces/"+tid.String())
	if code != http.StatusOK {
		t.Fatalf("lookup status=%d", code)
	}
	var lookup obs.TraceLookup
	if err := json.Unmarshal([]byte(body), &lookup); err != nil {
		t.Fatal(err)
	}
	root := lookup.Records[0].Root
	if root.ParentSpanID != parent.String() {
		t.Fatalf("root parentSpanId %q, want caller span %q", root.ParentSpanID, parent)
	}
}

// TestMalformedTraceparent: broken inbound headers never fail the request
// — the server starts a fresh root trace, per the W3C spec.
func TestMalformedTraceparent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	valid := obs.FormatTraceparent(obs.NewTraceID(), obs.NewSpanID(), true)
	cases := map[string]string{
		"garbage":       "bogus",
		"truncated":     valid[:40],
		"bad version":   "ff" + valid[2:],
		"zero trace id": "00-00000000000000000000000000000000-" + valid[36:],
		"uppercase":     strings.ToUpper(valid),
	}
	body := analyzeBody(t, workload.Ring(4).String())
	for name, header := range cases {
		resp := postRaw(t, ts.URL+"/v1/analyze", body,
			map[string]string{obs.TraceparentHeader: header})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status=%d, want 200", name, resp.StatusCode)
			continue
		}
		id := resp.Header.Get("X-Trace-Id")
		if !hexTraceID.MatchString(id) {
			t.Errorf("%s: fresh trace id %q malformed", name, id)
		}
		if strings.Contains(header, id) {
			t.Errorf("%s: reused trace id from a malformed header", name)
		}
	}
}

// TestTraceSampling: 1-in-N head sampling retains every Nth fast healthy
// request and drops the rest.
func TestTraceSampling(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: 3})
	for i := 0; i < 9; i++ {
		// Distinct sources so no request short-circuits through the cache.
		resp := postRaw(t, ts.URL+"/v1/analyze", analyzeBody(t, workload.Ring(3+i).String()), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status=%d", i, resp.StatusCode)
		}
	}
	_, body := getBody(t, ts.URL+"/debug/traces")
	var list obs.TraceList
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if list.Retained != 3 || list.Dropped != 6 {
		t.Fatalf("retained=%d dropped=%d, want 3/6", list.Retained, list.Dropped)
	}
	for _, tr := range list.Traces {
		if tr.Reason != obs.RetainSampled {
			t.Fatalf("reason=%q", tr.Reason)
		}
	}
}

// TestErrorRetention: failed requests are retained with the error reason
// even when sampling would have dropped them, and the JSON error body
// carries the trace id.
func TestErrorRetention(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: -1})
	resp := postRaw(t, ts.URL+"/v1/analyze", []byte("{not json"), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")
	var eb struct {
		Error struct {
			Code    string `json:"code"`
			TraceID string `json:"traceId"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.TraceID != id || id == "" {
		t.Fatalf("error body traceId %q != header %q", eb.Error.TraceID, id)
	}
	code, body := getBody(t, ts.URL+"/debug/traces/"+id)
	if code != http.StatusOK {
		t.Fatalf("errored trace not retained: %d", code)
	}
	var lookup obs.TraceLookup
	if err := json.Unmarshal([]byte(body), &lookup); err != nil {
		t.Fatal(err)
	}
	if lookup.Records[0].Reason != obs.RetainError || lookup.Records[0].Status != http.StatusBadRequest {
		t.Fatalf("record: %+v", lookup.Records[0])
	}
}

// TestSlowRequestWarn: a request over the slow threshold emits one WARN
// line naming the trace, the endpoint, and the stage breakdown, and the
// trace is retained with the slow reason.
func TestSlowRequestWarn(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	// Default sampling (every request) so the pipeline spans exist; the
	// slow reason still outranks sampled in the retention priority.
	_, ts := newTestServer(t, Config{
		Logger:        logger,
		SlowThreshold: time.Nanosecond,
	})
	resp := postRaw(t, ts.URL+"/v1/analyze", analyzeBody(t, workload.Ring(4).String()), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")

	var warn map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		if rec["level"] == "WARN" && rec["msg"] == "slow request" {
			warn = rec
		}
	}
	if warn == nil {
		t.Fatalf("no slow-request WARN:\n%s", buf.String())
	}
	if warn["trace"] != id || warn["endpoint"] != "/v1/analyze" {
		t.Fatalf("warn attrs: %v", warn)
	}
	if warn["algorithm"] != "naive" {
		t.Fatalf("algorithm attr: %v", warn)
	}
	stages, _ := warn["stages"].(string)
	if !strings.Contains(stages, "sync-graph=") || !strings.Contains(stages, "detect:naive=") {
		t.Fatalf("stage breakdown: %q", stages)
	}
	if _, ok := warn["ms"].(float64); !ok {
		t.Fatalf("ms attr: %v", warn)
	}
	_, body := getBody(t, ts.URL+"/debug/traces/"+id)
	var lookup obs.TraceLookup
	if err := json.Unmarshal([]byte(body), &lookup); err != nil {
		t.Fatal(err)
	}
	if lookup.Records[0].Reason != obs.RetainSlow {
		t.Fatalf("reason=%q, want slow", lookup.Records[0].Reason)
	}
}

// TestSlowWarnDisabled: SlowThreshold<0 turns the WARN line off entirely.
func TestSlowWarnDisabled(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, Config{Logger: logger, SlowThreshold: -1})
	if code, _, _ := analyze(t, ts.URL, AnalyzeRequest{Source: workload.Ring(4).String()}); code != http.StatusOK {
		t.Fatal("analyze failed")
	}
	if strings.Contains(buf.String(), "slow request") {
		t.Fatalf("WARN emitted with slow logging disabled:\n%s", buf.String())
	}
}

// TestStageTimingWithoutSampling: head sampling decides retention only.
// With sampling off, an executed analysis still records its stage spans,
// so the stage histograms count it and the slow-request line carries the
// per-stage breakdown.
func TestStageTimingWithoutSampling(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: &mu, w: &buf}, nil))
	_, ts := newTestServer(t, Config{
		Logger:        logger,
		TraceSample:   -1,
		SlowThreshold: time.Nanosecond,
		StageCacheMB:  -1,
	})
	if code, _, _ := analyze(t, ts.URL, AnalyzeRequest{Source: workload.Ring(4).String()}); code != http.StatusOK {
		t.Fatalf("analyze status=%d", code)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, body, `siwa_analyze_stage_seconds_count{stage="total"}`); got != 1 {
		t.Fatalf("stage total count=%d, want 1", got)
	}
	waitFor(t, "slow-request line with stages", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var rec map[string]any
			if json.Unmarshal([]byte(line), &rec) == nil && rec["msg"] == "slow request" {
				stages, _ := rec["stages"].(string)
				return strings.Contains(stages, "detect:naive=")
			}
		}
		return false
	})
}

// TestRequestLogCarriesTrace: the per-request INFO line includes the
// trace id so log lines and retained traces join on one key.
func TestRequestLogCarriesTrace(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, Config{Logger: logger})
	resp := postRaw(t, ts.URL+"/v1/analyze", analyzeBody(t, workload.Ring(4).String()), nil)
	id := resp.Header.Get("X-Trace-Id")
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &rec); err != nil {
		t.Fatalf("log: %v\n%s", err, buf.String())
	}
	if rec["trace"] != id {
		t.Fatalf("log trace=%v, want %q", rec["trace"], id)
	}
}

// TestBatchTraceSingleRecord: a batch request exports one record whose
// root spans the whole batch; a degraded item marks the trace degraded.
func TestBatchTraceSingleRecord(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/v1/analyze/batch", BatchRequest{
		Programs: []BatchProgram{
			{ID: "a", Source: workload.Ring(3).String()},
			{ID: "b", Source: workload.Pipeline(2, 2).String()},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status=%d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")
	code, body := getBody(t, ts.URL+"/debug/traces/"+id)
	if code != http.StatusOK {
		t.Fatalf("lookup status=%d", code)
	}
	var lookup obs.TraceLookup
	if err := json.Unmarshal([]byte(body), &lookup); err != nil {
		t.Fatal(err)
	}
	if len(lookup.Records) != 1 || lookup.Records[0].Root.Name != "server /v1/analyze/batch" {
		t.Fatalf("records: %+v", lookup.Records)
	}
}

// TestDebugTracesNotTraced: the debug endpoints themselves never generate
// traces (only /v1/ paths are traced).
func TestDebugTracesNotTraced(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		getBody(t, ts.URL+"/debug/traces")
		getBody(t, ts.URL+"/metrics")
		getBody(t, ts.URL+"/healthz")
	}
	_, body := getBody(t, ts.URL+"/debug/traces")
	var list obs.TraceList
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if list.Retained != 0 || list.Dropped != 0 {
		t.Fatalf("debug traffic was traced: %+v", list)
	}
}

// TestTraceRingConfig: the ring size is honored.
func TestTraceRingConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceRing: 2})
	for i := 0; i < 5; i++ {
		postRaw(t, ts.URL+"/v1/analyze", analyzeBody(t, workload.Ring(3+i).String()), nil)
	}
	_, body := getBody(t, ts.URL+"/debug/traces")
	var list obs.TraceList
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 2 || list.Retained != 5 {
		t.Fatalf("ring: %d traces, retained=%d", len(list.Traces), list.Retained)
	}
}
