package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestMetricsExposition is the golden test for GET /metrics: after one
// traced analyze and one batch, every metric family must be announced
// with HELP and TYPE, every histogram must be cumulative and monotone,
// and its +Inf bucket must equal its _count.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, _ := analyze(t, ts.URL, AnalyzeRequest{
		Source: workload.Ring(4).String(),
		Trace:  true,
	})
	if code != http.StatusOK {
		t.Fatalf("analyze status=%d", code)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/analyze/batch", BatchRequest{
		Programs: []BatchProgram{{ID: "a", Source: workload.Pipeline(2, 2).String()}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status=%d", resp.StatusCode)
	}

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status=%d", code)
	}

	families := map[string]string{
		"siwa_requests_total":              "counter",
		"siwa_analyses_total":              "counter",
		"siwa_anomalous_total":             "counter",
		"siwa_timeouts_total":              "counter",
		"siwa_request_errors_total":        "counter",
		"siwa_shed_total":                  "counter",
		"siwa_deadline_shed_total":         "counter",
		"siwa_panics_total":                "counter",
		"siwa_degraded_total":              "counter",
		"siwa_batch_items_total":           "counter",
		"siwa_cache_hits_total":            "counter",
		"siwa_cache_misses_total":          "counter",
		"siwa_stage_cache_hits_total":      "counter",
		"siwa_stage_cache_misses_total":    "counter",
		"siwa_stage_cache_evictions_total": "counter",
		"siwa_stage_cache_builds_total":    "counter",
		"siwa_stage_cache_bytes":           "gauge",
		"siwa_stage_cache_entries":         "gauge",
		"siwa_inflight_requests":           "gauge",
		"siwa_workers":                     "gauge",
		"siwa_workers_busy":                "gauge",
		"siwa_queue_depth":                 "gauge",
		"siwa_queued":                      "gauge",
		"siwa_http_request_seconds":        "histogram",
		"siwa_analyze_stage_seconds":       "histogram",
		// Trace-exporter and Go-runtime telemetry families.
		"siwa_traces_retained_total":     "counter",
		"siwa_traces_dropped_total":      "counter",
		"siwa_traces_retained_bytes":     "gauge",
		"siwa_go_goroutines":             "gauge",
		"siwa_go_heap_inuse_bytes":       "gauge",
		"siwa_go_gc_pause_seconds_total": "counter",
		"siwa_build_info":                "gauge",
	}
	for name, typ := range families {
		if !strings.Contains(body, "# HELP "+name+" ") {
			t.Errorf("missing HELP for %s", name)
		}
		if !strings.Contains(body, fmt.Sprintf("# TYPE %s %s\n", name, typ)) {
			t.Errorf("missing TYPE %s %s", name, typ)
		}
		if strings.Count(body, "# TYPE "+name+" ") != 1 {
			t.Errorf("TYPE for %s announced more than once", name)
		}
	}
	// Nothing outside the list renders either.
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && families[f[2]] == "" {
			t.Errorf("undeclared family %s rendered", f[2])
		}
	}

	// All batch outcome series are pre-registered, even at zero.
	for _, outcome := range []string{"ok", "cached", "error", "timeout", "shed"} {
		if !strings.Contains(body, fmt.Sprintf("siwa_batch_items_total{outcome=%q}", outcome)) {
			t.Errorf("batch outcome %q not exported", outcome)
		}
	}
	if !strings.Contains(body, `siwa_batch_items_total{outcome="ok"} 1`) {
		t.Error("batch ok count not 1")
	}

	// The analyze and batch above were cold sources: every stage-cache
	// request missed, built, and left resident bytes behind.
	for _, name := range []string{
		"siwa_stage_cache_misses_total",
		"siwa_stage_cache_builds_total",
		"siwa_stage_cache_bytes",
		"siwa_stage_cache_entries",
	} {
		if v := metricValue(t, body, name); v <= 0 {
			t.Errorf("%s = %d, want > 0", name, v)
		}
	}

	// All four retention-reason series are pre-registered, even at zero,
	// and the build-info gauge carries version and Go labels.
	for _, reason := range []string{"error", "slow", "degraded", "sampled"} {
		if !strings.Contains(body, fmt.Sprintf("siwa_traces_retained_total{reason=%q}", reason)) {
			t.Errorf("retention reason %q not exported", reason)
		}
	}
	if !strings.Contains(body, `siwa_build_info{version="`) || !strings.Contains(body, `,go="go`) {
		t.Error("siwa_build_info missing version/go labels")
	}

	// The traced analyze populated per-stage series.
	for _, stage := range []string{"total", "sync-graph", "clg", "detect:naive", "stall"} {
		want := fmt.Sprintf("siwa_analyze_stage_seconds_bucket{stage=%q,le=\"+Inf\"}", stage)
		if !strings.Contains(body, want) {
			t.Errorf("stage series %q missing", stage)
		}
	}

	checkHistogram(t, body, "siwa_http_request_seconds", "endpoint", "analyze")
	checkHistogram(t, body, "siwa_http_request_seconds", "endpoint", "batch")
	checkHistogram(t, body, "siwa_analyze_stage_seconds", "stage", "total")
}

// metricValue extracts one unlabelled series value from the exposition.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("bad %s line %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found", name)
	return 0
}

// checkHistogram parses one labelled histogram out of the exposition and
// verifies bucket monotonicity, the +Inf bucket, and the count line.
func checkHistogram(t *testing.T, body, name, labelKey, labelValue string) {
	t.Helper()
	prefix := fmt.Sprintf("%s_bucket{%s=%q,le=", name, labelKey, labelValue)
	var buckets []uint64
	var infBucket, count uint64
	haveInf, haveCount := false, false
	for _, line := range strings.Split(body, "\n") {
		switch {
		case strings.HasPrefix(line, prefix):
			fields := strings.Fields(line)
			v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if strings.Contains(line, `le="+Inf"`) {
				infBucket, haveInf = v, true
			} else {
				buckets = append(buckets, v)
			}
		case strings.HasPrefix(line, fmt.Sprintf("%s_count{%s=%q}", name, labelKey, labelValue)):
			fields := strings.Fields(line)
			v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			count, haveCount = v, true
		}
	}
	if len(buckets) == 0 || !haveInf || !haveCount {
		t.Fatalf("%s{%s=%q}: incomplete histogram (buckets=%d inf=%v count=%v)",
			name, labelKey, labelValue, len(buckets), haveInf, haveCount)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Fatalf("%s{%s=%q}: buckets not cumulative at %d: %v",
				name, labelKey, labelValue, i, buckets)
		}
	}
	if infBucket < buckets[len(buckets)-1] {
		t.Fatalf("+Inf bucket %d below last bound %d", infBucket, buckets[len(buckets)-1])
	}
	if infBucket != count {
		t.Fatalf("+Inf bucket %d != count %d", infBucket, count)
	}
	if count == 0 {
		t.Fatalf("%s{%s=%q}: no observations", name, labelKey, labelValue)
	}
	if !strings.Contains(body, fmt.Sprintf("%s_sum{%s=%q}", name, labelKey, labelValue)) {
		t.Fatalf("%s{%s=%q}: missing _sum", name, labelKey, labelValue)
	}
}

func TestTraceEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := workload.Pipeline(3, 2).String()

	// Untraced request: no trace in the response.
	code, ar, _ := analyze(t, ts.URL, AnalyzeRequest{Source: src})
	if code != http.StatusOK || ar.Trace != nil {
		t.Fatalf("untraced response carried a trace (status=%d)", code)
	}
	untraced := ar.Report

	// Traced request for different source: span tree echoed, report clean.
	src2 := workload.Ring(3).String()
	code, ar, _ = analyze(t, ts.URL, AnalyzeRequest{Source: src2, Trace: true})
	if code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	if ar.Trace == nil || ar.Trace.Name != "analyze" || len(ar.Trace.Children) == 0 {
		t.Fatalf("trace echo missing or empty: %+v", ar.Trace)
	}
	if bytes.Contains(ar.Report, []byte(`"trace"`)) {
		t.Fatalf("trace leaked into the report body:\n%s", ar.Report)
	}

	// A traced request hitting the cache returns the identical report but
	// no trace: nothing ran, so there is nothing to time.
	code, ar2, _ := analyze(t, ts.URL, AnalyzeRequest{Source: src, Trace: true})
	if code != http.StatusOK || !ar2.Cached {
		t.Fatalf("expected cache hit: status=%d cached=%v", code, ar2.Cached)
	}
	if ar2.Trace != nil {
		t.Fatal("cache hit echoed a trace")
	}
	if !bytes.Equal(untraced, ar2.Report) {
		t.Fatal("traced and untraced requests produced different cached reports")
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := getBody(t, ts.URL+"/v1/algorithms")
	if code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	var resp AlgorithmsResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad body %v:\n%s", err, body)
	}
	if resp.Default != "naive" {
		t.Fatalf("default=%q", resp.Default)
	}
	if len(resp.Algorithms) != 7 {
		t.Fatalf("got %d algorithms", len(resp.Algorithms))
	}
	// Spectrum order: naive first, enumerate last, descriptions present.
	if resp.Algorithms[0].Name != "naive" || resp.Algorithms[len(resp.Algorithms)-1].Name != "enumerate" {
		t.Fatalf("order: %+v", resp.Algorithms)
	}
	for _, a := range resp.Algorithms {
		if a.Description == "" {
			t.Fatalf("algorithm %q has no description", a.Name)
		}
	}
}

func TestBatchItemOutcomes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := workload.Ring(3).String()
	// Prime the cache so the batch sees one hit.
	if code, _, _ := analyze(t, ts.URL, AnalyzeRequest{Source: src}); code != http.StatusOK {
		t.Fatal("prime failed")
	}
	resp, _ := postJSON(t, ts.URL+"/v1/analyze/batch", BatchRequest{
		Programs: []BatchProgram{
			{ID: "hit", Source: src},
			{ID: "fresh", Source: workload.Ring(5).String()},
			{ID: "bad", Source: "not ada at all"},
			{ID: "empty"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status=%d", resp.StatusCode)
	}
	m := s.Metrics()
	if got := m.BatchItems[BatchCached].Load(); got != 1 {
		t.Errorf("cached=%d, want 1", got)
	}
	if got := m.BatchItems[BatchOK].Load(); got != 1 {
		t.Errorf("ok=%d, want 1", got)
	}
	if got := m.BatchItems[BatchError].Load(); got != 2 {
		t.Errorf("error=%d, want 2 (parse failure + missing source)", got)
	}
	if got := m.BatchItems[BatchTimeout].Load(); got != 0 {
		t.Errorf("timeout=%d, want 0", got)
	}
}

func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, Config{Logger: logger})
	src := workload.Ring(3).String()
	if code, _, _ := analyze(t, ts.URL, AnalyzeRequest{
		Source: src, Options: &WireOptions{Algorithm: "refined"},
	}); code != http.StatusOK {
		t.Fatal("analyze failed")
	}
	analyze(t, ts.URL, AnalyzeRequest{Source: src, Options: &WireOptions{Algorithm: "refined"}})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines:\n%s", len(lines), buf.String())
	}
	var first, second map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if first["endpoint"] != "analyze" || first["algorithm"] != "refined" {
		t.Fatalf("first record: %v", first)
	}
	if first["cached"] != false || second["cached"] != true {
		t.Fatalf("cached flags: %v / %v", first["cached"], second["cached"])
	}
	// The ring deadlocks: the verdict must say so, on the hit too (it is
	// stored beside the cached report).
	for i, rec := range []map[string]any{first, second} {
		if v, _ := rec["verdict"].(string); !strings.Contains(v, "may-deadlock") {
			t.Fatalf("record %d verdict=%q", i, rec["verdict"])
		}
		if id, _ := rec["id"].(string); !strings.HasPrefix(id, "req-") {
			t.Fatalf("record %d id=%q", i, rec["id"])
		}
		if _, ok := rec["ms"].(float64); !ok {
			t.Fatalf("record %d has no duration", i)
		}
	}
	if first["id"] == second["id"] {
		t.Fatal("request ids not unique")
	}
}

func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, Config{})
	if code, _ := getBody(t, off.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof mounted without EnablePprof: status=%d", code)
	}
	_, on := newTestServer(t, Config{EnablePprof: true})
	code, body := getBody(t, on.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status=%d", code)
	}
	if code, _ := getBody(t, on.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline: status=%d", code)
	}
}
