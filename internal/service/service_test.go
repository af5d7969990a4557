package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	siwa "repro"
	"repro/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

func analyze(t *testing.T, url string, req AnalyzeRequest) (int, AnalyzeResponse, siwa.JSONReport) {
	t.Helper()
	resp, data := postJSON(t, url+"/v1/analyze", req)
	var ar AnalyzeResponse
	var rep siwa.JSONReport
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &ar); err != nil {
			t.Fatalf("bad response %v\n%s", err, data)
		}
		if err := json.Unmarshal(ar.Report, &rep); err != nil {
			t.Fatalf("bad report %v\n%s", err, ar.Report)
		}
	}
	return resp.StatusCode, ar, rep
}

func TestAnalyzeAndCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := workload.Ring(5).String()
	req := AnalyzeRequest{Source: src, Options: &WireOptions{Algorithm: "refined"}}

	code, ar, rep := analyze(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	if ar.Cached {
		t.Fatal("first request was a cache hit")
	}
	if rep.SchemaVersion != siwa.SchemaVersion {
		t.Fatalf("schemaVersion=%d", rep.SchemaVersion)
	}
	if !rep.Deadlock.MayDeadlock || rep.DeadlockFree {
		t.Fatalf("ring not flagged: %+v", rep.Deadlock)
	}

	code, ar2, _ := analyze(t, ts.URL, req)
	if code != http.StatusOK || !ar2.Cached {
		t.Fatalf("second identical request not a cache hit: status=%d cached=%v", code, ar2.Cached)
	}
	if !bytes.Equal(ar.Report, ar2.Report) {
		t.Fatal("cached report differs from computed report")
	}
	st := s.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats: %+v", st)
	}
	if got := s.Metrics().Analyses.Load(); got != 1 {
		t.Fatalf("analyses=%d, want 1 (hit must not re-analyze)", got)
	}
}

// TestCacheCorrectnessWorkloads drives every deterministic workload family
// through the service twice and checks (a) the hit byte-for-byte equals
// the miss, (b) the verdict matches the family's known anomaly status, and
// (c) option changes miss the cache instead of aliasing.
func TestCacheCorrectnessWorkloads(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	families := []struct {
		name string
		src  string
	}{
		{"pipeline", workload.Pipeline(4, 3).String()},
		{"ring", workload.Ring(6).String()},
		{"ringBroken", workload.RingBroken(6).String()},
		{"clientServer", workload.ClientServer(4).String()},
		// The barrier family is really deadlock-free but conservatively
		// flagged by the static spectrum; the library verdict below is the
		// anchor either way.
		{"barrier", workload.Barrier(3, 2).String()},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			// Ground truth: the library called directly with the same options.
			direct, err := siwa.Analyze(siwa.MustParse(f.src), siwa.Options{
				Algorithm: siwa.AlgoRefinedPairs, Constraint4: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			req := AnalyzeRequest{Source: f.src, Options: &WireOptions{Algorithm: "pairs", Constraint4: true}}
			code, first, rep := analyze(t, ts.URL, req)
			if code != http.StatusOK || first.Cached {
				t.Fatalf("miss: status=%d cached=%v", code, first.Cached)
			}
			if rep.DeadlockFree != direct.DeadlockFree() {
				t.Fatalf("deadlockFree=%v, library says %v", rep.DeadlockFree, direct.DeadlockFree())
			}
			if f.name == "ring" && rep.DeadlockFree {
				t.Fatal("ring certified deadlock-free")
			}
			if f.name == "pipeline" && !rep.DeadlockFree {
				t.Fatal("pipeline not certified")
			}
			code, second, _ := analyze(t, ts.URL, req)
			if code != http.StatusOK || !second.Cached {
				t.Fatalf("hit: status=%d cached=%v", code, second.Cached)
			}
			if !bytes.Equal(first.Report, second.Report) {
				t.Fatalf("hit differs from miss:\n%s\n---\n%s", first.Report, second.Report)
			}
			// A different detector must not alias the cached entry.
			other := AnalyzeRequest{Source: f.src, Options: &WireOptions{Algorithm: "naive"}}
			code, third, _ := analyze(t, ts.URL, other)
			if code != http.StatusOK || third.Cached {
				t.Fatalf("option change served from cache: status=%d cached=%v", code, third.Cached)
			}
		})
	}
}

func TestConcurrentClients(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	sources := []string{
		workload.Pipeline(4, 3).String(),
		workload.Ring(5).String(),
		workload.RingBroken(5).String(),
		workload.ClientServer(3).String(),
	}
	want := make([]json.RawMessage, len(sources))
	for i, src := range sources {
		code, ar, _ := analyze(t, ts.URL, AnalyzeRequest{Source: src})
		if code != http.StatusOK {
			t.Fatalf("seed %d: status=%d", i, code)
		}
		want[i] = ar.Report
	}
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients*len(sources))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, src := range sources {
				resp, data := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d src %d: status %d", c, i, resp.StatusCode)
					continue
				}
				var ar AnalyzeResponse
				if err := json.Unmarshal(data, &ar); err != nil {
					errs <- err
					continue
				}
				if !bytes.Equal(ar.Report, want[i]) {
					errs <- fmt.Errorf("client %d src %d: report drifted", c, i)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.CacheStats()
	if st.Hits < clients {
		t.Fatalf("hits=%d, want >= %d", st.Hits, clients)
	}
}

// TestExactDeadlineReturns503 sends a 1ms-deadline Exact request whose wave
// space is exponential (ForkFan: (depth+1)^n states) and requires a prompt
// 503. The -race run doubles as the goroutine-leak check: the analysis runs
// on the request goroutine and AnalyzeContext aborts cooperatively, so
// nothing outlives the handler.
func TestExactDeadlineReturns503(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := workload.ForkFan(7, 5).String()
	start := time.Now()
	resp, data := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		Source:    src,
		Options:   &WireOptions{Exact: true},
		TimeoutMs: 1,
	})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "aborted") {
		t.Fatalf("body: %s", data)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, not prompt", elapsed)
	}
	if s.Metrics().Timeouts.Load() == 0 {
		t.Fatal("timeout not counted")
	}
	// Errors must not be cached: a retry with a workable deadline succeeds.
	code, ar, rep := analyze(t, ts.URL, AnalyzeRequest{Source: src, Options: &WireOptions{Exact: true}})
	if code != http.StatusOK || ar.Cached {
		t.Fatalf("retry: status=%d cached=%v", code, ar.Cached)
	}
	if rep.Exact == nil || rep.Exact.Deadlock {
		t.Fatalf("exact: %+v", rep.Exact)
	}
}

func TestBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	req := BatchRequest{
		Options: &WireOptions{Algorithm: "pairs"},
		Programs: []BatchProgram{
			{ID: "pipeline", Source: workload.Pipeline(3, 2).String()},
			{ID: "ring", Source: workload.Ring(4).String()},
			{ID: "broken", Source: "task t is begin oops end;"},
			{ID: "empty"},
			{ID: "naive-ring", Source: workload.Ring(4).String(), Options: &WireOptions{Algorithm: "naive"}},
		},
	}
	resp, data := postJSON(t, ts.URL+"/v1/analyze/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 5 {
		t.Fatalf("results=%d", len(br.Results))
	}
	byID := map[string]BatchResult{}
	for _, r := range br.Results {
		byID[r.ID] = r
	}
	var rep siwa.JSONReport
	if err := json.Unmarshal(byID["pipeline"].Report, &rep); err != nil || !rep.DeadlockFree {
		t.Fatalf("pipeline: err=%v rep=%+v", err, rep)
	}
	if err := json.Unmarshal(byID["ring"].Report, &rep); err != nil || rep.DeadlockFree {
		t.Fatalf("ring: err=%v rep=%+v", err, rep)
	}
	if byID["broken"].Error == "" || byID["broken"].Report != nil {
		t.Fatalf("broken: %+v", byID["broken"])
	}
	if byID["empty"].Error != "missing source" {
		t.Fatalf("empty: %+v", byID["empty"])
	}
	// Per-item options override the batch default: the naive verdict's
	// algorithm name must differ from the batch-level "pairs".
	if err := json.Unmarshal(byID["naive-ring"].Report, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Deadlock.Algorithm != siwa.AlgoNaive.String() {
		t.Fatalf("algorithm=%q", rep.Deadlock.Algorithm)
	}
	// Order is preserved.
	if br.Results[0].ID != "pipeline" || br.Results[4].ID != "naive-ring" {
		t.Fatalf("order: %+v", br.Results)
	}
}

// TestBatchNeverShedsItself: a lone batch larger than the worker pool, on
// a replica with no admission queue, is worked through by pool-size
// workers, so none of its items is shed by the batch's own other items.
func TestBatchNeverShedsItself(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	progs := make([]BatchProgram, 8)
	for i := range progs {
		progs[i] = BatchProgram{ID: fmt.Sprint(i), Source: workload.Ring(i + 2).String()}
	}
	resp, data := postJSON(t, ts.URL+"/v1/analyze/batch", BatchRequest{Programs: progs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(progs) {
		t.Fatalf("results=%d, want %d", len(br.Results), len(progs))
	}
	for i, r := range br.Results {
		if r.ID != progs[i].ID || r.ErrorCode != 0 || r.Report == nil {
			t.Fatalf("item %d: %+v", i, r)
		}
	}
	_, body := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, body, "siwa_shed_total"); got != 0 {
		t.Fatalf("siwa_shed_total=%d, want 0", got)
	}
}

func TestBatchSharesCacheWithAnalyze(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := workload.Pipeline(3, 2).String()
	if code, _, _ := analyze(t, ts.URL, AnalyzeRequest{Source: src}); code != http.StatusOK {
		t.Fatalf("seed failed: %d", code)
	}
	resp, data := postJSON(t, ts.URL+"/v1/analyze/batch", BatchRequest{
		Programs: []BatchProgram{{ID: "p", Source: src}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if !br.Results[0].Cached {
		t.Fatal("batch did not hit the cache entry seeded by /v1/analyze")
	}
	if got := s.Metrics().Analyses.Load(); got != 1 {
		t.Fatalf("analyses=%d", got)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 2048, MaxBatch: 2})
	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(data)
	}
	if code, _ := post("/v1/analyze", "{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed body: %d", code)
	}
	if code, body := post("/v1/analyze", `{"source":"x","options":{"algorithm":"bogus"}}`); code != http.StatusBadRequest || !strings.Contains(body, "naive") {
		t.Errorf("unknown algorithm: %d %s", code, body)
	}
	if code, _ := post("/v1/analyze", `{"source":""}`); code != http.StatusBadRequest {
		t.Errorf("empty source: %d", code)
	}
	if code, _ := post("/v1/analyze", `{"source":"x","timeoutMs":-5}`); code != http.StatusBadRequest {
		t.Errorf("negative timeout: %d", code)
	}
	if code, _ := post("/v1/analyze", `{"source":"task t is begin accept m; end;"`); code != http.StatusBadRequest {
		t.Errorf("truncated body: %d", code)
	}
	// Parse failures are 422: the request was well-formed, the program not.
	if code, _ := post("/v1/analyze", `{"source":"task t is begin oops end;"}`); code != http.StatusUnprocessableEntity {
		t.Errorf("parse error: %d", code)
	}
	if code, _ := post("/v1/analyze/batch", `{"programs":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch: %d", code)
	}
	if code, body := post("/v1/analyze/batch", `{"programs":[{"source":"a"},{"source":"b"},{"source":"c"}]}`); code != http.StatusBadRequest || !strings.Contains(body, "limit") {
		t.Errorf("oversized batch: %d %s", code, body)
	}
	big := fmt.Sprintf(`{"source":%q}`, strings.Repeat("x", 4096))
	if code, _ := post("/v1/analyze", big); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET analyze: %d", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, data)
	}

	// Generate one miss and one hit, then check the counters surface.
	src := workload.Ring(3).String()
	analyze(t, ts.URL, AnalyzeRequest{Source: src})
	analyze(t, ts.URL, AnalyzeRequest{Source: src})

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		`siwa_requests_total{endpoint="analyze"} 2`,
		"siwa_cache_hits_total 1",
		"siwa_cache_misses_total 1",
		"siwa_analyses_total 1",
		"siwa_anomalous_total 1",
		"siwa_workers",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{StageCacheMB: -1})
	src := workload.Pipeline(3, 2).String()
	for i := 0; i < 2; i++ {
		code, ar, _ := analyze(t, ts.URL, AnalyzeRequest{Source: src})
		if code != http.StatusOK || ar.Cached {
			t.Fatalf("request %d: status=%d cached=%v", i, code, ar.Cached)
		}
	}
	if got := s.Metrics().Analyses.Load(); got != 2 {
		t.Fatalf("analyses=%d, want 2 with cache disabled", got)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2, ShutdownGrace: 10 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	url := "http://" + ln.Addr().String()

	// Launch a non-trivial exact analysis, then cancel the server while it
	// is (likely) in flight; drain must let it finish with a 200.
	type result struct {
		code int
		body string
	}
	rc := make(chan result, 1)
	go func() {
		b, _ := json.Marshal(AnalyzeRequest{
			Source:  workload.ForkFan(6, 4).String(),
			Options: &WireOptions{Exact: true},
		})
		resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(b))
		if err != nil {
			rc <- result{-1, err.Error()}
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		rc <- result{resp.StatusCode, string(data)}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("shutdown did not complete")
	}
	r := <-rc
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request: code=%d body=%s", r.code, r.body)
	}
	// The listener is closed: new connections must fail.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
