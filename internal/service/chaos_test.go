package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	siwa "repro"
	"repro/internal/fault"
	"repro/internal/workload"
)

func decodeError(t *testing.T, data []byte) ErrorBody {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("error body not structured: %v\n%s", err, data)
	}
	if er.Error.Code == 0 || er.Error.Message == "" {
		t.Fatalf("error body incomplete: %s", data)
	}
	return er.Error
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueDeadlineRace pins down the admission/deadline interaction: a
// request whose deadline expires while it waits in the queue must come
// back as "timeout" (503), never "shed" (it was admitted), and must never
// occupy a worker slot.
func TestQueueDeadlineRace(t *testing.T) {
	defer fault.Reset()
	// Every analysis sleeps 200ms inside its worker slot, so the single
	// worker stays busy long past the victim's 50ms deadline.
	fault.Set("service.analyze", fault.Mode{Kind: fault.KindDelay, Delay: 200 * time.Millisecond})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	done := make(chan int, 1)
	go func() {
		code, _, _ := analyze(t, ts.URL, AnalyzeRequest{Source: workload.Ring(3).String()})
		done <- code
	}()
	waitFor(t, "worker busy", func() bool { return s.pool.InFlight() == 1 })

	resp, data := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		Source:    workload.Ring(4).String(),
		TimeoutMs: 50,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	if eb := decodeError(t, data); eb.Code != CodeTimeout {
		t.Fatalf("code=%q, want %q (admitted request must not report shed)", eb.Code, CodeTimeout)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("timeout response missing Retry-After")
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("blocking request: status=%d", code)
	}
	m := s.Metrics()
	if m.Timeouts.Load() != 1 || m.Shed.Load() != 0 {
		t.Fatalf("timeouts=%d shed=%d, want 1/0", m.Timeouts.Load(), m.Shed.Load())
	}
	// The victim never reached a worker: only the blocker was analyzed.
	if got := m.Analyses.Load(); got != 1 {
		t.Fatalf("analyses=%d, want 1 (expired request occupied a worker)", got)
	}
}

// TestShedWhenQueueFull fills the worker and the whole queue, then
// requires a fast 429 with Retry-After and code "shed" — and normal
// service once the backlog drains.
func TestShedWhenQueueFull(t *testing.T) {
	defer fault.Reset()
	fault.Set("service.analyze", fault.Mode{Kind: fault.KindDelay, Delay: 200 * time.Millisecond})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // 1 running + 2 queued
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, _ := analyze(t, ts.URL, AnalyzeRequest{Source: workload.Ring(3 + i).String()})
			if code != http.StatusOK {
				t.Errorf("backlog request %d: status=%d", i, code)
			}
		}(i)
	}
	waitFor(t, "full queue", func() bool {
		return s.pool.InFlight() == 1 && s.pool.Queued() == 2
	})

	start := time.Now()
	resp, data := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: workload.Ring(9).String()})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	if eb := decodeError(t, data); eb.Code != CodeShed {
		t.Fatalf("code=%q, want %q", eb.Code, CodeShed)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shed took %v, not fast-fail", elapsed)
	}
	wg.Wait()
	if got := s.Metrics().Shed.Load(); got != 1 {
		t.Fatalf("shed=%d, want 1", got)
	}
	// Backlog drained: the same request now succeeds.
	if code, _, _ := analyze(t, ts.URL, AnalyzeRequest{Source: workload.Ring(9).String()}); code != http.StatusOK {
		t.Fatalf("post-drain status=%d", code)
	}
}

// TestChaos is the failure-containment acceptance test: with a fault
// injected into a pipeline stage on ~10% of analyses and an unroll bomb
// inside a batch, the server must keep serving — every failure surfaces
// as a structured, correctly-coded error, nothing crashes, /healthz stays
// green, and the panic/shed/degraded counters account for every event.
// Run it under -race (CI does) to double as the data-race check.
func TestChaos(t *testing.T) {
	defer fault.Reset()
	fault.Set("analyze.clg", fault.Mode{Kind: fault.KindPanic, Every: 10})
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8})

	// Phase 1: concurrent singles with unique sources (no cache aliasing).
	const clients = 40
	codes := make([]int, clients)
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := fmt.Sprintf("-- chaos %d\n%s", i, workload.Ring(3+i%5).String())
			resp, data := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
			codes[i], bodies[i] = resp.StatusCode, data
		}(i)
	}
	wg.Wait()
	var ok, internal, shed int
	for i := range codes {
		switch codes[i] {
		case http.StatusOK:
			ok++
		case http.StatusInternalServerError:
			internal++
			if eb := decodeError(t, bodies[i]); eb.Code != CodeInternal {
				t.Fatalf("500 with code %q: %s", eb.Code, bodies[i])
			}
		case http.StatusTooManyRequests:
			shed++
			if eb := decodeError(t, bodies[i]); eb.Code != CodeShed {
				t.Fatalf("429 with code %q: %s", eb.Code, bodies[i])
			}
		default:
			t.Fatalf("request %d: unexpected status %d: %s", i, codes[i], bodies[i])
		}
	}
	if ok == 0 {
		t.Fatal("no request survived the chaos")
	}
	if internal == 0 {
		t.Fatal("fault injection fired zero panics; the chaos tested nothing")
	}

	// Phase 2: a batch carrying an unroll bomb between healthy programs.
	// The bomb dies of resource_limit (predicted, not allocated); its
	// neighbours are independent.
	resp, data := postJSON(t, ts.URL+"/v1/analyze/batch", BatchRequest{
		Programs: []BatchProgram{
			{ID: "ok1", Source: workload.Pipeline(3, 2).String()},
			{ID: "bomb", Source: workload.NestedLoops(20, 2).String()},
			{ID: "ok2", Source: workload.RingBroken(4).String()},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status=%d body=%s", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	batchInternal := 0
	for _, r := range br.Results {
		if r.ID == "bomb" {
			if r.ErrorCode != CodeResourceLimit || !strings.Contains(r.Error, "unrolled rendezvous nodes") {
				t.Fatalf("bomb outcome: %+v", r)
			}
			continue
		}
		// Healthy items either succeed or were hit by the 10% fault.
		switch r.ErrorCode {
		case 0:
			if r.Report == nil {
				t.Fatalf("item %s: no report and no error", r.ID)
			}
		case CodeInternal:
			batchInternal++
		default:
			t.Fatalf("item %s: unexpected code %q", r.ID, r.ErrorCode)
		}
	}

	// Phase 3: degraded analyses under the same chaos.
	degraded, lateInternal := 0, 0
	for i := 0; i < 3; i++ {
		src := fmt.Sprintf("-- degrade %d\n%s", i, workload.ForkFan(5, 4).String())
		resp, data := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
			Source:  src,
			Options: &WireOptions{Algorithm: "refined", Exact: true, MaxStates: 64, Degrade: true},
		})
		switch resp.StatusCode {
		case http.StatusOK:
			var ar AnalyzeResponse
			if err := json.Unmarshal(data, &ar); err != nil {
				t.Fatal(err)
			}
			var rep siwa.JSONReport
			if err := json.Unmarshal(ar.Report, &rep); err != nil {
				t.Fatal(err)
			}
			if !rep.Degraded {
				t.Fatalf("budget-starved exact run not degraded: %s", ar.Report)
			}
			degraded++
		case http.StatusInternalServerError: // the 10% fault got it first
			lateInternal++
		default:
			t.Fatalf("degrade request: status=%d body=%s", resp.StatusCode, data)
		}
	}

	// The metrics account for every event the chaos produced.
	m := s.Metrics()
	wantPanics := uint64(internal + batchInternal + lateInternal)
	if got := m.Panics.Load(); got != wantPanics {
		t.Fatalf("panics=%d, want %d (singles %d + batch %d + degrade-phase %d)",
			got, wantPanics, internal, batchInternal, lateInternal)
	}
	if got := m.Shed.Load(); got != uint64(shed) {
		t.Fatalf("shed=%d, want %d", got, shed)
	}
	if got := m.Degraded.Load(); got != uint64(degraded) {
		t.Fatalf("degraded=%d, want %d", got, degraded)
	}

	// The process survived: health is green and a clean request works.
	fault.Reset()
	if code, body := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after chaos: %d %s", code, body)
	}
	if code, _, _ := analyze(t, ts.URL, AnalyzeRequest{Source: workload.Pipeline(4, 2).String()}); code != http.StatusOK {
		t.Fatalf("post-chaos analyze: status=%d", code)
	}
}

// TestHandlerPanicRecovered injects a panic on the request goroutine
// itself (not inside the analysis pipeline) and requires the recovery
// middleware to turn it into a structured 500 while the server lives on.
func TestHandlerPanicRecovered(t *testing.T) {
	defer fault.Reset()
	fault.Set("service.analyze", fault.Mode{Kind: fault.KindPanic})
	s, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: workload.Ring(3).String()})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	if eb := decodeError(t, data); eb.Code != CodeInternal {
		t.Fatalf("code=%q", eb.Code)
	}
	if s.Metrics().Panics.Load() == 0 {
		t.Fatal("recovered panic not counted")
	}
	fault.Reset()
	if code, _, _ := analyze(t, ts.URL, AnalyzeRequest{Source: workload.Ring(3).String()}); code != http.StatusOK {
		t.Fatalf("server did not survive the panic: status=%d", code)
	}
}

// TestHandlerFaultPointScope arms the replica's service.handler point as
// a panic. It fires on the analyze routes only, inside the request-id
// layer: probes and metrics stay up, and the analyze 500 echoes the
// client's request id and is counted as a recovered panic.
func TestHandlerFaultPointScope(t *testing.T) {
	defer fault.Reset()
	fault.Set("service.handler", fault.Mode{Kind: fault.KindPanic})
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if code, body := getBody(t, ts.URL+path); code != http.StatusOK {
			t.Fatalf("GET %s: status=%d body=%s", path, code, body)
		}
	}
	_, body := getBody(t, ts.URL+"/metrics")
	before := metricValue(t, body, "siwa_panics_total")
	resp := postRaw(t, ts.URL+"/v1/analyze", analyzeBody(t, workload.Ring(3).String()),
		map[string]string{"X-Request-Id": "corr-1"})
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	if eb := decodeError(t, data); eb.Code != CodeInternal {
		t.Fatalf("code=%q", eb.Code)
	}
	if id := resp.Header.Get("X-Request-Id"); id != "corr-1" {
		t.Fatalf("X-Request-Id=%q, want corr-1", id)
	}
	_, body = getBody(t, ts.URL+"/metrics")
	if after := metricValue(t, body, "siwa_panics_total"); after != before+1 {
		t.Fatalf("siwa_panics_total %d -> %d, want +1", before, after)
	}
}

// TestBatchPanicDoesNotKillProcess injects panics into batch-item
// goroutines, which bypass the HTTP middleware entirely: only the
// per-item recovery stands between the fault and os.Exit(2).
func TestBatchPanicDoesNotKillProcess(t *testing.T) {
	defer fault.Reset()
	fault.Set("service.analyze", fault.Mode{Kind: fault.KindPanic})
	s, ts := newTestServer(t, Config{Workers: 2})
	resp, data := postJSON(t, ts.URL+"/v1/analyze/batch", BatchRequest{
		Programs: []BatchProgram{
			{ID: "a", Source: workload.Ring(3).String()},
			{ID: "b", Source: workload.Ring(4).String()},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status=%d body=%s", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	for _, r := range br.Results {
		if r.ErrorCode != CodeInternal || !strings.Contains(r.Error, "injected fault") {
			t.Fatalf("item %s: %+v", r.ID, r)
		}
	}
	if got := s.Metrics().Panics.Load(); got != 2 {
		t.Fatalf("panics=%d, want 2", got)
	}
}

// TestDegradeEndToEnd is the graceful-degradation acceptance path: an
// Exact request with a deadline too short for the exponential exploration
// but ample for the polynomial pipeline returns HTTP 200 with the refined
// verdict and degraded: true — and the degraded report is never cached,
// so a retry with more headroom gets the full result.
func TestDegradeEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := workload.ForkFan(8, 6).String()
	req := AnalyzeRequest{
		Source:    src,
		Options:   &WireOptions{Algorithm: "refined", Exact: true, Degrade: true},
		TimeoutMs: 300,
	}
	code, ar, rep := analyze(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	if !rep.Degraded || len(rep.DegradedReasons) == 0 {
		t.Fatalf("not degraded: %s", ar.Report)
	}
	if rep.Deadlock.Algorithm != "refined" {
		t.Fatalf("fallback verdict: %+v", rep.Deadlock)
	}
	if s.Metrics().Degraded.Load() != 1 {
		t.Fatalf("degraded=%d, want 1", s.Metrics().Degraded.Load())
	}
	// Degraded results are timing-dependent: never cached.
	code2, ar2, _ := analyze(t, ts.URL, req)
	if code2 != http.StatusOK || ar2.Cached {
		t.Fatalf("degraded report was cached: status=%d cached=%v", code2, ar2.Cached)
	}
	// The identical request without Degrade stays the hard 503.
	resp, data := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		Source:    src,
		Options:   &WireOptions{Algorithm: "refined", Exact: true},
		TimeoutMs: 300,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	if eb := decodeError(t, data); eb.Code != CodeTimeout {
		t.Fatalf("code=%q", eb.Code)
	}
}

// TestErrorTaxonomy locks the (status, code) pair for every error class a
// client can trigger, plus the response body shape.
func TestErrorTaxonomy(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 2048})
	post := func(body string) (int, ErrorBody) {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, decodeError(t, data)
	}
	cases := []struct {
		name   string
		body   string
		status int
		code   Code
	}{
		{"malformed json", "{nope", http.StatusBadRequest, CodeInvalidRequest},
		{"missing source", `{"source":""}`, http.StatusBadRequest, CodeInvalidRequest},
		{"unknown algorithm", `{"source":"x","options":{"algorithm":"nope"}}`, http.StatusBadRequest, CodeInvalidRequest},
		{"parse failure", `{"source":"task t is begin oops end;"}`, http.StatusUnprocessableEntity, CodeParseError},
		{"oversized body", fmt.Sprintf(`{"source":%q}`, strings.Repeat("x", 4096)), http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"data after the value", `{"source":"task a is begin end;"} trailing`, http.StatusBadRequest, CodeInvalidRequest},
		{"oversized after the value", `{"source":"task a is begin end;"}` + strings.Repeat(" ", 4096), http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"resource limit", fmt.Sprintf(`{"source":%q}`, workload.NestedLoops(20, 2).String()), http.StatusUnprocessableEntity, CodeResourceLimit},
	}
	for _, c := range cases {
		if len(c.body) > 2048 && c.code != CodeTooLarge {
			// The bomb source must fit under the body cap to reach the
			// limits check; regenerate the server if this ever trips.
			t.Fatalf("%s: body accidentally exceeds MaxBodyBytes", c.name)
		}
		status, eb := post(c.body)
		if status != c.status || eb.Code != c.code {
			t.Errorf("%s: got (%d, %q), want (%d, %q): %s", c.name, status, eb.Code, c.status, c.code, eb.Message)
		}
	}
}
