package cluster

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

var hexTraceID = regexp.MustCompile(`^[0-9a-f]{32}$`)

func fetchTrace(t *testing.T, baseURL, id string) obs.TraceLookup {
	t.Helper()
	code, body := getBody(t, baseURL+"/debug/traces/"+id)
	if code != http.StatusOK {
		t.Fatalf("trace lookup %s: status=%d body=%s", id, code, body)
	}
	var lookup obs.TraceLookup
	if err := json.Unmarshal([]byte(body), &lookup); err != nil {
		t.Fatal(err)
	}
	return lookup
}

// spanNames flattens every span name in a lookup, depth first.
func spanNames(lookup obs.TraceLookup) []string {
	var names []string
	for _, rec := range lookup.Records {
		rec.Root.Walk(func(sp *obs.SpanJSON) { names = append(names, sp.Name) })
	}
	return names
}

func findSpan(root *obs.SpanJSON, name string) *obs.SpanJSON {
	var found *obs.SpanJSON
	root.Walk(func(sp *obs.SpanJSON) {
		if found == nil && sp.Name == name {
			found = sp
		}
	})
	return found
}

// TestFleetTraceE2E is the tentpole acceptance test: one analyze through
// the gateway produces ONE trace id visible on both tiers, and the
// gateway's /debug/traces/{id} stitches the replica's per-stage pipeline
// spans under the gateway's routing span.
func TestFleetTraceE2E(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	_, gts := newTestGateway(t, f.urls, Config{})

	resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{
		Source: workload.Ring(4).String(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status=%d body=%s", resp.StatusCode, data)
	}
	id := resp.Header.Get("X-Trace-Id")
	if !hexTraceID.MatchString(id) {
		t.Fatalf("gateway X-Trace-Id %q", id)
	}

	// The same trace id is retained on exactly one replica (the digest
	// owner) under the SAME id — one trace spanning both tiers.
	replicaHits := 0
	for _, u := range f.urls {
		code, _ := getBody(t, u+"/debug/traces/"+id)
		if code == http.StatusOK {
			replicaHits++
		}
	}
	if replicaHits != 1 {
		t.Fatalf("trace id retained on %d replicas, want 1", replicaHits)
	}

	// The gateway's stitched view: gateway root -> route span -> replica
	// request span -> analyze -> pipeline stages, all one tree.
	lookup := fetchTrace(t, gts.URL, id)
	if lookup.TraceID != id || len(lookup.Records) != 1 {
		t.Fatalf("lookup: %+v", lookup)
	}
	root := lookup.Records[0].Root
	if root.Name != "gateway /v1/analyze" || root.TraceID != id {
		t.Fatalf("gateway root: %+v", root)
	}
	route := findSpan(root, "route")
	if route == nil {
		t.Fatalf("no route span under gateway root: %v", spanNames(lookup))
	}
	if route.Attrs["backend"] == "" {
		t.Fatalf("route span has no backend attr: %+v", route)
	}
	serverSpan := findSpan(route, "server /v1/analyze")
	if serverSpan == nil {
		t.Fatalf("replica request span not grafted under route: %v", spanNames(lookup))
	}
	if serverSpan.ParentSpanID != route.SpanID {
		t.Fatalf("replica root parent %q != route span %q", serverSpan.ParentSpanID, route.SpanID)
	}
	analyzeSpan := findSpan(serverSpan, "analyze")
	if analyzeSpan == nil {
		t.Fatalf("no analyze span in the grafted replica tree: %v", spanNames(lookup))
	}
	for _, stage := range []string{"sync-graph", "detect:naive"} {
		if findSpan(analyzeSpan, stage) == nil {
			t.Fatalf("pipeline stage %q missing from the stitched trace: %v", stage, spanNames(lookup))
		}
	}
}

// TestFleetBatchChunkSpans: a scattered batch shows up as sibling
// batch-chunk spans under the gateway root, each chunk parenting its
// replica's request span — still one trace id fleet-wide.
func TestFleetBatchChunkSpans(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{BatchChunk: 2})

	// Four programs owned by each backend: the ring's placement follows
	// the replicas' ports, so consecutive programs alone may all land on
	// one of them.
	var progs []service.BatchProgram
	owned := make([]int, 2)
	for n := 2; len(progs) < 8 && n < 200; n++ {
		src := workload.Ring(n).String()
		if o := g.Ring().Candidates(memo.SourceDigest(src))[0]; owned[o] < 4 {
			owned[o]++
			progs = append(progs, service.BatchProgram{ID: string(rune('a' + len(progs))), Source: src})
		}
	}
	if len(progs) < 8 {
		t.Fatalf("owned=%v: too few sample programs per backend", owned)
	}
	resp, data := postJSON(t, gts.URL+"/v1/analyze/batch", service.BatchRequest{Programs: progs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status=%d body=%s", resp.StatusCode, data)
	}
	id := resp.Header.Get("X-Trace-Id")

	lookup := fetchTrace(t, gts.URL, id)
	root := lookup.Records[0].Root
	if root.Name != "gateway /v1/analyze/batch" {
		t.Fatalf("root: %+v", root)
	}
	var chunks []*obs.SpanJSON
	for _, c := range root.Children {
		if c.Name == "batch-chunk" {
			chunks = append(chunks, c)
		}
	}
	// 8 items, chunk size 2: at least 4 sibling chunk spans (exactly 4
	// when nothing resharded).
	if len(chunks) < 4 {
		t.Fatalf("chunk spans=%d, want >=4: %v", len(chunks), spanNames(lookup))
	}
	grafted := 0
	backends := map[string]bool{}
	for _, c := range chunks {
		if c.Attrs["backend"] == "" {
			t.Fatalf("chunk without backend attr: %+v", c)
		}
		backends[c.Attrs["backend"]] = true
		if sub := findSpan(c, "server /v1/analyze/batch"); sub != nil {
			grafted++
		}
	}
	if len(backends) != 2 {
		t.Fatalf("chunks hit %d backends, want both", len(backends))
	}
	if grafted != len(chunks) {
		t.Fatalf("%d of %d chunk spans have grafted replica spans", grafted, len(chunks))
	}
}

// TestGatewayMalformedTraceparent: a broken client traceparent never
// fails a request at the gateway; it opens a fresh fleet trace.
func TestGatewayMalformedTraceparent(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	_, gts := newTestGateway(t, f.urls, Config{})
	body, _ := json.Marshal(service.AnalyzeRequest{Source: workload.Ring(4).String()})
	req, err := http.NewRequest(http.MethodPost, gts.URL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, "00-garbage-in-garbage-out")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d, malformed traceparent must not fail the request", resp.StatusCode)
	}
	if id := resp.Header.Get("X-Trace-Id"); !hexTraceID.MatchString(id) {
		t.Fatalf("fresh trace id %q", id)
	}
}

// TestGatewayTraceparentContinuation: a valid client traceparent is
// continued — the gateway root becomes a child of the client span and the
// echoed trace id is the client's.
func TestGatewayTraceparentContinuation(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	_, gts := newTestGateway(t, f.urls, Config{})
	tid, parent := obs.NewTraceID(), obs.NewSpanID()
	body, _ := json.Marshal(service.AnalyzeRequest{Source: workload.Ring(4).String()})
	req, err := http.NewRequest(http.MethodPost, gts.URL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(tid, parent, true))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != tid.String() {
		t.Fatalf("X-Trace-Id %q, want %q", got, tid)
	}
	lookup := fetchTrace(t, gts.URL, tid.String())
	if lookup.Records[0].Root.ParentSpanID != parent.String() {
		t.Fatalf("gateway root parent %q, want client span %q",
			lookup.Records[0].Root.ParentSpanID, parent)
	}
}

// TestGatewaySamplingDisabled: a negative TraceSample turns head sampling
// off and a negative SlowThreshold turns the slow path off, so a healthy
// request leaves no trace in the gateway's ring and no WARN line, while
// an errored one is still retained.
func TestGatewaySamplingDisabled(t *testing.T) {
	var buf bytes.Buffer
	f := newFleet(t, 1, service.Config{})
	_, gts := newTestGateway(t, f.urls, Config{
		TraceSample:   -1,
		SlowThreshold: -1,
		Logger:        slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: workload.Ring(4).String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	id := resp.Header.Get("X-Trace-Id")
	if code, body := getBody(t, gts.URL+"/debug/traces/"+id); code != http.StatusNotFound {
		t.Fatalf("unsampled healthy trace retained: %d %s", code, body)
	}
	resp, _ = postJSON(t, gts.URL+"/v1/analyze", json.RawMessage(`{"source":"task a is begin end;","optoins":{}}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status=%d, want 400", resp.StatusCode)
	}
	if rec := fetchTrace(t, gts.URL, resp.Header.Get("X-Trace-Id")).Records[0]; rec.Reason != obs.RetainError {
		t.Fatalf("errored trace retained as %q, want %q", rec.Reason, obs.RetainError)
	}
	if strings.Contains(buf.String(), "slow request") {
		t.Fatalf("WARN emitted with slow logging disabled:\n%s", buf.String())
	}
}

// TestGatewayRetrySpans: a shedding owner forces a retry; the retained
// trace shows the failed route attempt and the retry as separate spans.
func TestGatewayRetrySpans(t *testing.T) {
	f := newFleet(t, 3, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{MaxRetries: 2})
	const owner = 0
	src := ownedBy(t, g, owner)
	f.wraps[owner].mu.Lock()
	f.wraps[owner].shed = 1000
	f.wraps[owner].mu.Unlock()

	resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	id := resp.Header.Get("X-Trace-Id")
	lookup := fetchTrace(t, gts.URL, id)
	root := lookup.Records[0].Root
	route, retry := findSpan(root, "route"), findSpan(root, "retry")
	if route == nil || retry == nil {
		t.Fatalf("want route + retry spans, got %v", spanNames(lookup))
	}
	if route.Counters["status"] != http.StatusTooManyRequests {
		t.Fatalf("route span status=%d, want 429", route.Counters["status"])
	}
	if retry.Counters["status"] != http.StatusOK {
		t.Fatalf("retry span status=%d, want 200", retry.Counters["status"])
	}
	if route.Attrs["backend"] == retry.Attrs["backend"] {
		t.Fatal("retry did not move to another backend")
	}
}

// TestFleetStatus: the aggregation endpoint merges gateway-side facts
// (routing flag, ring share) with replica-scraped telemetry
// (readiness, cache hit rate, queue gauges, stage quantiles).
func TestFleetStatus(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	_, gts := newTestGateway(t, f.urls, Config{})

	// Generate some load: distinct programs, then a repeat for cache hits.
	for i := 0; i < 4; i++ {
		resp, _ := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: workload.Ring(i + 2).String()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze %d failed", i)
		}
	}
	resp, _ := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: workload.Ring(2).String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatal("repeat analyze failed")
	}

	code, body := getBody(t, gts.URL+"/v1/fleet/status")
	if code != http.StatusOK {
		t.Fatalf("fleet status=%d body=%s", code, body)
	}
	var fs FleetStatus
	if err := json.Unmarshal([]byte(body), &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Total != 2 || fs.Eligible != 2 || len(fs.Backends) != 2 {
		t.Fatalf("fleet: %+v", fs)
	}
	var share float64
	var analyses, hits uint64
	for _, b := range fs.Backends {
		if b.Error != "" {
			t.Fatalf("scrape error for %s: %s", b.Backend, b.Error)
		}
		if !b.Up || !b.Ready {
			t.Fatalf("backend %+v", b)
		}
		if b.Workers <= 0 {
			t.Fatalf("workers=%d", b.Workers)
		}
		share += b.RingShare
		analyses += b.Analyses
		hits += b.CacheHits
		for stage, q := range b.Stages {
			if q.Count == 0 || q.P50Ms < 0 || q.P50Ms > q.P90Ms || q.P90Ms > q.P99Ms {
				t.Fatalf("stage %q quantiles not monotone: %+v", stage, q)
			}
		}
	}
	if share < 0.99 || share > 1.01 {
		t.Fatalf("ring shares sum to %v", share)
	}
	// 4 distinct programs analyzed, 1 repeat served from a replica cache.
	if analyses != 4 || hits != 1 {
		t.Fatalf("analyses=%d hits=%d, want 4/1", analyses, hits)
	}
	// The digest owners actually ran the pipeline: somebody has stage
	// quantiles for the total stage.
	hasStages := false
	for _, b := range fs.Backends {
		if _, ok := b.Stages["total"]; ok {
			hasStages = true
		}
	}
	if !hasStages {
		t.Fatalf("no backend reported stage quantiles: %s", body)
	}
}

// TestFleetStatusScrapeFailure: a dead replica yields a per-backend error
// field; the endpoint itself still answers 200 with the gateway-side
// facts for the corpse.
func TestFleetStatusScrapeFailure(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	_, gts := newTestGateway(t, f.urls, Config{})
	f.wraps[1].mu.Lock()
	f.wraps[1].killed = true
	f.wraps[1].mu.Unlock()

	code, body := getBody(t, gts.URL+"/v1/fleet/status")
	if code != http.StatusOK {
		t.Fatalf("fleet status=%d", code)
	}
	var fs FleetStatus
	if err := json.Unmarshal([]byte(body), &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Backends[0].Error != "" {
		t.Fatalf("live replica reported error: %s", fs.Backends[0].Error)
	}
	if fs.Backends[1].Error == "" {
		t.Fatal("dead replica reported no scrape error")
	}
	if fs.Backends[1].Backend != f.urls[1] {
		t.Fatalf("order not preserved: %+v", fs.Backends)
	}
}

// TestQuantileFromBuckets pins the interpolation math.
func TestQuantileFromBuckets(t *testing.T) {
	bounds := []float64{0.1, 0.2, 0.4}
	// 10 samples: 5 in (0,0.1], 3 in (0.1,0.2], 1 in (0.2,0.4], 1 beyond.
	cum := []uint64{5, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 0.1},  // rank 5 = exactly the first bound
		{0.80, 0.2},  // rank 8 = exactly the second bound
		{0.90, 0.4},  // rank 9 = third bound
		{0.99, 0.4},  // rank 9.9 in the +Inf bucket: clamp to last bound
		{0.10, 0.02}, // rank 1 of 5 in the first bucket: 0.1 * 1/5... interpolated
	}
	for _, c := range cases {
		got := quantileFromBuckets(bounds, cum, c.q)
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("q=%v: got %v, want %v", c.q, got, c.want)
		}
	}
	if quantileFromBuckets(nil, nil, 0.5) != 0 {
		t.Error("empty histogram must yield 0")
	}
	if quantileFromBuckets(bounds, []uint64{0, 0, 0, 0}, 0.5) != 0 {
		t.Error("zero-count histogram must yield 0")
	}
}

// TestParsePromText pins the scrape parser against the exposition formats
// the replicas actually emit.
func TestParsePromText(t *testing.T) {
	text := strings.Join([]string{
		"# HELP siwa_analyses_total Total analyses.",
		"# TYPE siwa_analyses_total counter",
		"siwa_analyses_total 42",
		`siwa_batch_items_total{outcome="ok"} 7`,
		`siwa_analyze_stage_seconds_bucket{stage="clg",le="0.001"} 3`,
		`siwa_analyze_stage_seconds_bucket{stage="clg",le="+Inf"} 5`,
		`siwa_build_info{version="abc123",go="go1.22.0"} 1`,
		"", // blank line
		"garbage line without value",
	}, "\n")
	samples := parsePromText([]byte(text))
	if got := samples.value("siwa_analyses_total", nil); got != 42 {
		t.Fatalf("plain counter: %v", got)
	}
	if got := samples.value("siwa_batch_items_total", map[string]string{"outcome": "ok"}); got != 7 {
		t.Fatalf("labeled counter: %v", got)
	}
	if got := samples.value("siwa_analyze_stage_seconds_bucket",
		map[string]string{"stage": "clg", "le": "+Inf"}); got != 5 {
		t.Fatalf("+Inf bucket: %v", got)
	}
	if got := samples.value("siwa_build_info",
		map[string]string{"version": "abc123", "go": "go1.22.0"}); got != 1 {
		t.Fatalf("build info: %v", got)
	}
	if got := samples.value("missing_metric", nil); got != 0 {
		t.Fatalf("missing metric: %v", got)
	}
}

// TestGatewaySingleFlightTraceSpans: concurrent identical requests — the
// followers' traces record a single-flight-wait span instead of a
// duplicate upstream call.
func TestGatewaySingleFlightTraceSpans(t *testing.T) {
	f := newFleet(t, 1, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{})
	f.wraps[0].mu.Lock()
	f.wraps[0].delay = 50 * time.Millisecond // holds the flight open
	f.wraps[0].mu.Unlock()

	src := workload.Ring(6).String()
	ids := make(chan string, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: src})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status=%d body=%s", resp.StatusCode, data)
			}
			ids <- resp.Header.Get("X-Trace-Id")
		}()
	}
	a, b := <-ids, <-ids
	if a == "" || b == "" || a == b {
		t.Fatalf("trace ids %q / %q: want two distinct traces", a, b)
	}
	if g.Metrics().Dedup.Load() == 0 {
		t.Skip("requests did not coalesce; timing-dependent")
	}
	// The replica body is relayed verbatim, so the follower is identified
	// by its trace: it carries the wait span instead of a route span.
	waits := 0
	for _, id := range []string{a, b} {
		lookup := fetchTrace(t, gts.URL, id)
		if findSpan(lookup.Records[0].Root, "single-flight-wait") != nil {
			waits++
		}
	}
	if waits != 1 {
		t.Fatalf("single-flight-wait spans in %d of 2 traces, want exactly the follower", waits)
	}
}
