package cluster

import (
	"io"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/service"
)

// BackendMetrics holds one replica's per-backend counters and the
// request-latency histogram, all updated atomically.
type BackendMetrics struct {
	Name     string
	Requests atomic.Uint64 // upstream requests attempted (probes excluded)
	Failures atomic.Uint64 // transport-level failures (fed the breaker)
	Latency  *obs.Histogram
}

// Metrics holds the gateway counters, exported by GET /metrics in the
// same hand-rolled Prometheus text format the replicas use.
type Metrics struct {
	RequestsAnalyze atomic.Uint64 // POST /v1/analyze requests received
	RequestsBatch   atomic.Uint64 // POST /v1/analyze/batch requests received
	Dedup           atomic.Uint64 // analyze calls served by single-flight sharing
	Retries         atomic.Uint64 // upstream 429/503 responses retried
	Unavailable     atomic.Uint64 // requests/items that found no reachable backend
	Panics          atomic.Uint64 // panics recovered in gateway handlers

	Hedges               atomic.Uint64 // speculative attempts launched for slow primaries
	HedgeWins            atomic.Uint64 // hedged attempts whose answer was relayed
	RetryBudgetExhausted atomic.Uint64 // retries suppressed by an empty retry budget

	ItemsOK          atomic.Uint64 // batch items proxied successfully
	ItemsError       atomic.Uint64 // batch items with an upstream error code
	ItemsUnavailable atomic.Uint64 // batch items lost to a dead replica

	perBackend map[string]*BackendMetrics
	order      []string // stable exposition order = config order
}

func newMetrics(g *Gateway) *Metrics {
	m := &Metrics{perBackend: make(map[string]*BackendMetrics, len(g.backends))}
	for _, b := range g.backends {
		m.perBackend[b.name] = &BackendMetrics{
			Name:    b.name,
			Latency: obs.NewHistogram(obs.LatencyBuckets()...),
		}
		m.order = append(m.order, b.name)
	}
	return m
}

// backend returns the per-backend metric block (fixed at construction).
func (m *Metrics) backend(name string) *BackendMetrics { return m.perBackend[name] }

// The gateway's metric families, in exposition order.
var (
	famRequests             = obs.Family{Name: "siwa_gateway_requests_total", Help: "requests received by the gateway", Type: "counter", Labels: []string{"endpoint"}}
	famDedup                = obs.Family{Name: "siwa_gateway_singleflight_dedup_total", Help: "analyze requests served by sharing an identical in-flight upstream call", Type: "counter"}
	famRetries              = obs.Family{Name: "siwa_gateway_retries_total", Help: "upstream 429/503 responses retried with backoff", Type: "counter"}
	famUnavailable          = obs.Family{Name: "siwa_gateway_unavailable_total", Help: "requests or batch items that found no reachable backend", Type: "counter"}
	famPanics               = obs.Family{Name: "siwa_gateway_panics_total", Help: "panics recovered in gateway handlers", Type: "counter"}
	famHedges               = obs.Family{Name: "siwa_gateway_hedges_total", Help: "speculative attempts launched for slow primaries", Type: "counter"}
	famHedgeWins            = obs.Family{Name: "siwa_gateway_hedge_wins_total", Help: "hedged attempts whose answer was relayed to the client", Type: "counter"}
	famRetryBudgetExhausted = obs.Family{Name: "siwa_gateway_retry_budget_exhausted_total", Help: "retries suppressed because the retry budget was empty", Type: "counter"}
	famRetryBudgetTokens    = obs.Family{Name: "siwa_gateway_retry_budget_tokens", Help: "retry tokens available", Type: "gauge", Labels: []string{"scope"}}
	famBatchItems           = obs.Family{Name: "siwa_gateway_batch_items_total", Help: "per-item outcomes inside proxied batches", Type: "counter", Labels: []string{"outcome"}}
	famBackendRequests      = obs.Family{Name: "siwa_gateway_backend_requests_total", Help: "upstream requests per backend", Type: "counter", Labels: []string{"backend"}}
	famBackendFailures      = obs.Family{Name: "siwa_gateway_backend_failures_total", Help: "transport-level failures per backend", Type: "counter", Labels: []string{"backend"}}
	famBackendUp            = obs.Family{Name: "siwa_gateway_backend_up", Help: "latest active health probe verdict (1 up, 0 down)", Type: "gauge", Labels: []string{"backend"}}
	famBreakerState         = obs.Family{Name: "siwa_gateway_breaker_state", Help: "circuit breaker state per backend (0 closed, 1 open, 2 half-open)", Type: "gauge", Labels: []string{"backend"}}
	famRingOwnership        = obs.Family{Name: "siwa_gateway_ring_ownership_millionths", Help: "fraction of the hash keyspace owned, in millionths", Type: "gauge", Labels: []string{"backend"}}
	famBackendSeconds       = obs.Family{Name: "siwa_gateway_backend_request_seconds", Help: "upstream request wall time by backend", Type: "histogram", Labels: []string{"backend"}}
)

// WriteTo renders the exposition. Families and label sets come out in a
// fixed order (config order for backends) so scrapes are reproducible.
func (m *Metrics) WriteTo(w io.Writer, g *Gateway) {
	famRequests.Head(w)
	famRequests.Sample(w, m.RequestsAnalyze.Load(), "analyze")
	famRequests.Sample(w, m.RequestsBatch.Load(), "batch")
	famDedup.Write(w, m.Dedup.Load())
	famRetries.Write(w, m.Retries.Load())
	famUnavailable.Write(w, m.Unavailable.Load())
	famPanics.Write(w, m.Panics.Load())
	famHedges.Write(w, m.Hedges.Load())
	famHedgeWins.Write(w, m.HedgeWins.Load())
	famRetryBudgetExhausted.Write(w, m.RetryBudgetExhausted.Load())
	if g.retryBudget != nil {
		famRetryBudgetTokens.Head(w)
		famRetryBudgetTokens.Sample(w, g.retryBudget.Tokens(), "global")
		for _, b := range g.backends {
			famRetryBudgetTokens.Sample(w, b.retry.Tokens(), b.name)
		}
	}
	famBatchItems.Head(w)
	famBatchItems.Sample(w, m.ItemsOK.Load(), "ok")
	famBatchItems.Sample(w, m.ItemsError.Load(), "error")
	famBatchItems.Sample(w, m.ItemsUnavailable.Load(), service.CodeUnavailable.String())

	famBackendRequests.Head(w)
	for _, name := range m.order {
		famBackendRequests.Sample(w, m.perBackend[name].Requests.Load(), name)
	}
	famBackendFailures.Head(w)
	for _, name := range m.order {
		famBackendFailures.Sample(w, m.perBackend[name].Failures.Load(), name)
	}
	famBackendUp.Head(w)
	for _, b := range g.backends {
		up := 0
		if b.up.Load() {
			up = 1
		}
		famBackendUp.Sample(w, up, b.name)
	}
	famBreakerState.Head(w)
	for _, b := range g.backends {
		famBreakerState.Sample(w, int(b.breaker.State()), b.name)
	}
	famRingOwnership.Head(w)
	own := g.ring.Ownership()
	for i, name := range m.order {
		famRingOwnership.Sample(w, int64(own[i]*1e6+0.5), name)
	}
	famBackendSeconds.Head(w)
	for _, name := range m.order {
		famBackendSeconds.Histogram(w, m.perBackend[name].Latency, name)
	}
}
