package cluster

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// TestRetryBudgetTokenBucket covers the bucket arithmetic: the burst is
// spendable immediately, partial tokens never fund a retry, earning is
// fractional and capped at the limit, and refunds cannot overflow.
func TestRetryBudgetTokenBucket(t *testing.T) {
	rb := newRetryBudget(2, 0.5)
	if !rb.TrySpend() || !rb.TrySpend() {
		t.Fatal("bucket starts at burst; the first two spends must succeed")
	}
	if rb.TrySpend() {
		t.Fatal("empty bucket funded a retry")
	}
	rb.Earn() // 0.5 tokens: not enough
	if rb.TrySpend() {
		t.Fatal("a partial token funded a retry")
	}
	rb.Earn() // 1.0
	if !rb.TrySpend() {
		t.Fatal("two successes at ratio 0.5 should fund one retry")
	}
	for i := 0; i < 100; i++ {
		rb.Earn()
	}
	if got := rb.Tokens(); got != 2 {
		t.Fatalf("tokens=%g after heavy earning, want the cap 2", got)
	}
	rb.Refund()
	if got := rb.Tokens(); got != 2 {
		t.Fatalf("refund overflowed the cap: tokens=%g", got)
	}
}

// TestRetryBudgetLowWatermark pins the hedging gate: Low trips strictly
// below half capacity, so hedges stop before genuine retries run dry.
func TestRetryBudgetLowWatermark(t *testing.T) {
	rb := newRetryBudget(4, 0.1)
	if rb.Low() {
		t.Fatal("full bucket reported low")
	}
	rb.TrySpend()
	rb.TrySpend()
	if rb.Low() {
		t.Fatal("bucket at exactly half capacity reported low")
	}
	rb.TrySpend()
	if !rb.Low() {
		t.Fatal("bucket below half capacity not reported low")
	}
}

// TestRetryBudgetNilDisabled pins the disabled object: a nil bucket
// always funds spends and never reports low.
func TestRetryBudgetNilDisabled(t *testing.T) {
	var rb *retryBudget
	rb.Earn()
	rb.Refund()
	if !rb.TrySpend() {
		t.Fatal("nil budget must always fund retries")
	}
	if rb.Low() {
		t.Fatal("nil budget must never report low")
	}
	if got := rb.Tokens(); got != 0 {
		t.Fatalf("nil budget tokens=%g", got)
	}
}

// TestGatewayRetryBudgetExhaustion drives a permanently shedding replica
// with a small retry budget: exactly burst retries happen before the
// bucket drains, the suppression is recorded in its own metric and the
// X-Retry-Budget response header, and the client still sees the
// upstream's own shed body (taxonomy code "shed") — never a gateway
// rewrap to "unavailable", because the replica answered, it just pushed
// back.
func TestGatewayRetryBudgetExhaustion(t *testing.T) {
	f := newFleet(t, 1, service.Config{})
	f.wraps[0].shed = 1000
	g, gts := newTestGateway(t, f.urls, Config{
		MaxRetries:       8,
		RetryBudgetRatio: 0.1,
		RetryBudgetBurst: 2,
	})
	resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: workload.Ring(4).String()})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	if eb := decodeError(t, data); eb.Code != service.CodeShed {
		t.Fatalf("code=%q, want %q (upstream body relayed, not rewrapped)", eb.Code, service.CodeShed)
	}
	if got := resp.Header.Get("X-Retry-Budget"); got != "exhausted" {
		t.Fatalf("X-Retry-Budget=%q, want %q", got, "exhausted")
	}
	// MaxRetries allowed 8 extra attempts, but the budget's burst of 2 is
	// the binding cap: amplification stops when the bucket drains.
	if got := g.Metrics().Retries.Load(); got != 2 {
		t.Fatalf("retries=%d, want exactly the burst of 2", got)
	}
	if got := g.Metrics().RetryBudgetExhausted.Load(); got != 1 {
		t.Fatalf("retry_budget_exhausted=%d, want 1", got)
	}
	if got := f.wraps[0].analyzeCalls(); got != 3 {
		t.Fatalf("replica saw %d attempts, want 3 (initial + 2 budgeted retries)", got)
	}

	code, text := getBody(t, gts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status=%d", code)
	}
	if got := promCounter(t, text, "siwa_gateway_retry_budget_exhausted_total"); got != 1 {
		t.Fatalf("siwa_gateway_retry_budget_exhausted_total=%d, want 1", got)
	}
	for _, want := range []string{
		`siwa_gateway_retry_budget_tokens{scope="global"} 0`,
		"siwa_gateway_hedges_total",
		"siwa_gateway_hedge_wins_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestGatewayRetrySucceedsWithinBudget is the control: with the budget
// on and tokens available, the ordinary shed-then-recover retry still
// works and no exhaustion is recorded.
func TestGatewayRetrySucceedsWithinBudget(t *testing.T) {
	f := newFleet(t, 1, service.Config{})
	f.wraps[0].shed = 1
	g, gts := newTestGateway(t, f.urls, Config{
		MaxRetries:       2,
		RetryBudgetRatio: 0.1,
		RetryBudgetBurst: 10,
	})
	resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: workload.Ring(5).String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	if got := g.Metrics().Retries.Load(); got != 1 {
		t.Fatalf("retries=%d, want 1", got)
	}
	if got := g.Metrics().RetryBudgetExhausted.Load(); got != 0 {
		t.Fatalf("retry_budget_exhausted=%d, want 0", got)
	}
	if resp.Header.Get("X-Retry-Budget") != "" {
		t.Fatal("successful response wrongly carries X-Retry-Budget")
	}
}

// TestSleepRetryRespectsDeadlineBudget pins the deadline-aware backoff:
// a request whose context deadline leaves too little for the wait plus
// another attempt refuses to sleep at all, and an uncapped upstream
// Retry-After hint cannot hold the connection past the deadline either.
func TestSleepRetryRespectsDeadlineBudget(t *testing.T) {
	f := newFleet(t, 1, service.Config{})
	g, _ := newTestGateway(t, f.urls, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	if g.sleepRetry(ctx, 0, "1") { // Retry-After: 1s >> 2ms of deadline
		t.Fatal("sleepRetry agreed to wait out a backoff the deadline will kill")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("deadline-refused sleep still took %v", elapsed)
	}

	// Without a deadline the old contract holds: the sleep happens (full
	// jitter means any delay in [0, retryBackoff<<attempt]).
	if !g.sleepRetry(context.Background(), 0, "") {
		t.Fatal("sleepRetry failed with no deadline pressure")
	}
}

// TestSleepRetryLateAttempts: the backoff ceiling stops doubling at
// retryAfterCap, so a late attempt (a gateway run with many retries and no
// budget) draws a bounded delay instead of shifting retryBackoff past the
// int64 range, where the draw panicked and the client got a 500 for what
// should have been the last upstream 429.
func TestSleepRetryLateAttempts(t *testing.T) {
	f := newFleet(t, 1, service.Config{})
	g, _ := newTestGateway(t, f.urls, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for attempt := 0; attempt < 64; attempt++ {
		if g.sleepRetry(ctx, attempt, "") {
			t.Fatalf("attempt %d: sleepRetry waited on a cancelled context", attempt)
		}
	}
}
