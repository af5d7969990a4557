package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/memo"
	"repro/internal/service"
	"repro/internal/workload"
)

// hostOf extracts the HOST:PORT part of an httptest base URL, for
// host-qualified network fault points.
func hostOf(t *testing.T, url string) string {
	t.Helper()
	host, ok := strings.CutPrefix(url, "http://")
	if !ok {
		t.Fatalf("unexpected test URL %q", url)
	}
	return host
}

// TestGatewayChaosBrownout is the overload-resilience acceptance test:
// one of three replicas browns out — every byte toward it stalls 800ms
// at the injected network layer, the failure mode breakers cannot see
// (the replica is healthy, the wire is slow) — while clients call with a
// 2s end-to-end deadline budget. Hedging must bound the tail: every
// request for a digest the browned replica owns completes via a
// speculative attempt to the next ring candidate in a small fraction of
// the brownout latency. And no replica may do work the deadline already
// orphaned: the browned replica serves zero analyses (its cancelled
// primaries never get past the stalled wire), and every span retained on
// the survivors starts and ends inside the budget window.
func TestGatewayChaosBrownout(t *testing.T) {
	defer fault.Reset()
	f := newFleet(t, 3, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{
		HedgePercentile:  95,
		RetryBudgetRatio: 0.1,
		RetryBudgetBurst: 20,
		MaxRetries:       2,
	})

	const browned = 0
	const brownout = 800 * time.Millisecond
	fault.Set("gateway.net.latency@"+fault.HostKey(hostOf(t, f.urls[browned])),
		fault.Mode{Kind: fault.KindDelay, Delay: brownout})

	// Programs the browned replica owns: every request's primary attempt
	// routes into the stalled wire.
	var sources []string
	for n := 2; n < 400 && len(sources) < 5; n++ {
		src := workload.Ring(n).String()
		if g.Ring().Candidates(memo.SourceDigest(src))[0] == browned {
			sources = append(sources, src)
		}
	}
	if len(sources) < 5 {
		t.Fatalf("only %d sample programs route to backend %d; widen the workload", len(sources), browned)
	}

	testStart := time.Now()
	var worst time.Duration
	var lastDeadline time.Time
	for _, src := range sources {
		reqStart := time.Now()
		lastDeadline = reqStart.Add(2 * time.Second)
		resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: src, TimeoutMs: 2000})
		if elapsed := time.Since(reqStart); elapsed > worst {
			worst = elapsed
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze during brownout: status=%d body=%s", resp.StatusCode, data)
		}
	}
	// The hedge fires at the cold-backend fallback delay (100ms), far
	// below the 800ms the primary is stuck for: even the slowest request
	// must beat the brownout latency outright.
	if worst >= brownout {
		t.Fatalf("worst request took %v with an %v brownout; hedging failed to bound the tail", worst, brownout)
	}
	if hedges := g.Metrics().Hedges.Load(); hedges < uint64(len(sources)) {
		t.Fatalf("hedges=%d, want >= %d (every browned-owner request should hedge)", hedges, len(sources))
	}
	if wins := g.Metrics().HedgeWins.Load(); wins < uint64(len(sources)) {
		t.Fatalf("hedge_wins=%d, want >= %d", wins, len(sources))
	}

	// Zero post-deadline (indeed, zero) work on the browned replica: the
	// injected stall sits before its requests leave the gateway, and the
	// hedge win cancels each primary long before the stall elapses.
	if got := f.wraps[browned].analyzeCalls(); got != 0 {
		t.Fatalf("browned replica served %d analyzes; cancelled primaries must not reach it", got)
	}
	// The survivors' retained spans all fit inside the deadline window.
	for i, srv := range f.servers {
		for _, rec := range srv.Exporter().List().Traces {
			if rec.Start.Before(testStart) {
				continue // retained from another test's server reuse (none today, but cheap to guard)
			}
			end := rec.Start.Add(time.Duration(rec.DurationMs * float64(time.Millisecond)))
			if end.After(lastDeadline) {
				t.Fatalf("replica %d trace %s ran until %v, past the last request deadline %v",
					i, rec.TraceID, end, lastDeadline)
			}
		}
	}

	// The gateway's view of the ordeal is priced honestly: speculation was
	// charged to the retry budget, and with every hedge answered the
	// bucket never hit empty.
	if got := g.Metrics().RetryBudgetExhausted.Load(); got != 0 {
		t.Fatalf("retry_budget_exhausted=%d during a hedged brownout, want 0", got)
	}
}

// TestGatewayHedgeChargesRetryBudget pins the speculation price: a
// drained retry budget disables hedging entirely, so the brownout
// latency comes back to the client instead of a hedge racing it.
func TestGatewayHedgeChargesRetryBudget(t *testing.T) {
	defer fault.Reset()
	f := newFleet(t, 3, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{
		HedgePercentile:  95,
		RetryBudgetRatio: 0.1,
		RetryBudgetBurst: 4,
		MaxRetries:       -1,
	})
	const browned = 0
	fault.Set("gateway.net.latency@"+fault.HostKey(hostOf(t, f.urls[browned])),
		fault.Mode{Kind: fault.KindDelay, Delay: 300 * time.Millisecond})

	// Drain the bucket below the Low watermark by hand.
	for g.retryBudget.Tokens() >= 2 {
		g.retryBudget.TrySpend()
	}
	src := ownedBy(t, g, browned)
	start := time.Now()
	resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: src, TimeoutMs: 2000})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	if got := g.Metrics().Hedges.Load(); got != 0 {
		t.Fatalf("hedges=%d with a low retry budget, want 0 (speculation must not compete with retries)", got)
	}
	if elapsed < 300*time.Millisecond {
		t.Fatalf("request finished in %v; with hedging off it must ride out the %v stall", elapsed, 300*time.Millisecond)
	}
}

// TestGatewayDeadlineBudgetShedsAtReplica pins the end-to-end deadline
// propagation contract: the gateway derives a budget from the client's
// timeoutMs, forwards the remainder via X-Deadline-Ms, and a replica
// whose admission floor exceeds that budget refuses the work before any
// analysis starts — a deliberate, counted shed, not a timeout discovered
// the slow way.
func TestGatewayDeadlineBudgetShedsAtReplica(t *testing.T) {
	f := newFleet(t, 1, service.Config{DeadlineFloor: 2 * time.Second})
	_, gts := newTestGateway(t, f.urls, Config{MaxRetries: -1})

	resp, data := postJSON(t, gts.URL+"/v1/analyze",
		service.AnalyzeRequest{Source: workload.Ring(3).String(), TimeoutMs: 1000})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	eb := decodeError(t, data)
	if eb.Code != service.CodeTimeout {
		t.Fatalf("code=%q, want %q", eb.Code, service.CodeTimeout)
	}
	if !strings.Contains(eb.Message, "below admission floor") {
		t.Fatalf("message %q does not name the admission floor", eb.Message)
	}
	if got := f.servers[0].Metrics().DeadlineShed.Load(); got != 1 {
		t.Fatalf("replica deadline_shed=%d, want 1", got)
	}
	if got := f.servers[0].Metrics().Analyses.Load(); got != 0 {
		t.Fatalf("replica ran %d analyses for a dead-on-arrival budget, want 0", got)
	}
	code, text := getBody(t, f.urls[0]+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("replica /metrics status=%d", code)
	}
	if got := promCounter(t, text, "siwa_deadline_shed_total"); got != 1 {
		t.Fatalf("siwa_deadline_shed_total=%d, want 1", got)
	}

	// A budget above the floor clears admission and analyzes normally.
	resp2, data2 := postJSON(t, gts.URL+"/v1/analyze",
		service.AnalyzeRequest{Source: workload.Ring(3).String(), TimeoutMs: 10_000})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("ample budget: status=%d body=%s", resp2.StatusCode, data2)
	}
	if got := f.servers[0].Metrics().Analyses.Load(); got != 1 {
		t.Fatalf("replica analyses=%d after an admitted request, want 1", got)
	}
}

// TestGatewayBatchDeadlineDecrement pins the re-scatter deadline: a
// sub-batch re-sent after upstream pushback carries in X-Deadline-Ms only
// the time left in the batch's deadline, never the whole budget again,
// while every sub-batch relays the client's timeoutMs unchanged (the
// replica takes the smaller of the two). A negative timeoutMs relays
// unchanged too, so the replica's validation error stays authoritative.
func TestGatewayBatchDeadlineDecrement(t *testing.T) {
	type pass struct{ timeoutMs, deadlineMs int64 }
	var mu sync.Mutex
	var seen []pass
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/analyze/batch" {
			w.WriteHeader(http.StatusOK)
			return
		}
		var req service.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("stub: bad sub-batch body: %v", err)
		}
		deadlineMs, err := strconv.ParseInt(r.Header.Get(service.DeadlineHeader), 10, 64)
		if err != nil {
			deadlineMs = -1
		}
		mu.Lock()
		seen = append(seen, pass{req.TimeoutMs, deadlineMs})
		n := len(seen)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if n == 1 {
			// First pass: burn a visible slice of the deadline, then shed
			// the whole chunk so the gateway re-scatters it.
			time.Sleep(300 * time.Millisecond)
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"shed","message":"synthetic shed"}}`)
			return
		}
		results := make([]service.BatchResult, len(req.Programs))
		for i, p := range req.Programs {
			results[i] = service.BatchResult{ID: p.ID, Report: json.RawMessage(`{"x":1}`)}
		}
		json.NewEncoder(w).Encode(service.BatchResponse{Results: results})
	}))
	defer stub.Close()
	_, gts := newTestGateway(t, []string{stub.URL}, Config{})

	resp, data := postJSON(t, gts.URL+"/v1/analyze/batch", service.BatchRequest{
		Programs:  []service.BatchProgram{{ID: "p0", Source: "task main { }"}},
		TimeoutMs: 2000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status=%d body=%s", resp.StatusCode, data)
	}
	var br service.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil || len(br.Results) != 1 || br.Results[0].ErrorCode != 0 {
		t.Fatalf("re-scattered batch did not recover: %s", data)
	}
	mu.Lock()
	got := append([]pass(nil), seen...)
	mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("stub saw %d sub-batches, want 2 (original + re-scatter)", len(got))
	}
	for i, p := range got {
		if p.timeoutMs != 2000 {
			t.Fatalf("pass %d relayed timeoutMs=%d, want the client's 2000 unchanged", i, p.timeoutMs)
		}
	}
	if got[0].deadlineMs < 1500 || got[0].deadlineMs > 2000 {
		t.Fatalf("first pass X-Deadline-Ms=%d, want ~2000 (the whole deadline)", got[0].deadlineMs)
	}
	if got[1].deadlineMs < 0 || got[1].deadlineMs > got[0].deadlineMs-250 {
		t.Fatalf("re-scattered X-Deadline-Ms=%d after first pass %d: 300ms of elapsed deadline not taken off",
			got[1].deadlineMs, got[0].deadlineMs)
	}

	// Negative timeoutMs: the gateway sets no deadline and the value
	// relays unchanged for the replica to reject.
	resp2, _ := postJSON(t, gts.URL+"/v1/analyze/batch", service.BatchRequest{
		Programs:  []service.BatchProgram{{ID: "p1", Source: "task main { }"}},
		TimeoutMs: -7,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("stub relay status=%d", resp2.StatusCode)
	}
	mu.Lock()
	last := seen[len(seen)-1]
	mu.Unlock()
	if last.timeoutMs != -7 {
		t.Fatalf("negative timeoutMs relayed as %d, want -7 unchanged", last.timeoutMs)
	}
}
