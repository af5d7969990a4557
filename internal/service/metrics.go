package service

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	siwa "repro"
	"repro/internal/obs"
)

// BatchOutcome classifies one program's fate inside a batch request, for
// the siwa_batch_items_total{outcome=...} counter family.
type BatchOutcome int

const (
	BatchOK BatchOutcome = iota // analyzed fresh
	BatchCached
	BatchError
	BatchTimeout
	BatchShed // rejected by the admission queue
	numBatchOutcomes
)

// batchOutcomeNames are the label values, indexed by BatchOutcome. An
// item that timed out or was shed is labelled with its error code.
var batchOutcomeNames = [numBatchOutcomes]string{"ok", "cached", "error", CodeTimeout.String(), CodeShed.String()}

// Metrics holds the service counters and latency histograms, exported by
// GET /metrics in the Prometheus text exposition format (hand-rolled; the
// module stays dependency-free). All fields are updated atomically.
type Metrics struct {
	RequestsAnalyze atomic.Uint64 // POST /v1/analyze requests
	RequestsBatch   atomic.Uint64 // POST /v1/analyze/batch requests
	Analyses        atomic.Uint64 // analyses actually executed (cache misses that ran)
	CacheHits       atomic.Uint64 // report lookups answered from the cache
	CacheMisses     atomic.Uint64 // report lookups that went on to analyze
	Anomalous       atomic.Uint64 // completed analyses that found an anomaly
	Timeouts        atomic.Uint64 // analyses aborted by deadline or disconnect
	Errors          atomic.Uint64 // requests rejected (parse, validation, body size)
	Shed            atomic.Uint64 // analyses rejected because the admission queue was full
	DeadlineShed    atomic.Uint64 // requests refused because the propagated deadline budget was below the floor
	Panics          atomic.Uint64 // panics recovered (pipeline stages, handlers, batch items)
	Degraded        atomic.Uint64 // analyses that fell back to the polynomial verdict
	InFlight        atomic.Int64  // requests currently being served

	// BatchItems counts per-program outcomes inside batch requests,
	// indexed by BatchOutcome. All four series are exported even at zero,
	// so dashboards see the full label set from the first scrape.
	BatchItems [numBatchOutcomes]atomic.Uint64

	// httpLatency measures wall time per endpoint; the label set is fixed
	// at construction so scrapes are allocation-free.
	httpLatency map[string]*obs.Histogram

	// stageLatency measures per-pipeline-stage time, keyed by span name
	// ("sync-graph", "clg", "detect:refined", ...). Stages appear as they
	// are first observed, which only happens on traced analyses.
	stageMu      sync.Mutex
	stageLatency map[string]*obs.Histogram
}

// newMetrics builds a Metrics with the fixed endpoint histograms.
func newMetrics() *Metrics {
	return &Metrics{
		httpLatency: map[string]*obs.Histogram{
			"analyze": obs.NewHistogram(obs.LatencyBuckets()...),
			"batch":   obs.NewHistogram(obs.LatencyBuckets()...),
		},
		stageLatency: make(map[string]*obs.Histogram),
	}
}

// ObserveRequest records one request's wall time under its endpoint label.
func (m *Metrics) ObserveRequest(endpoint string, d time.Duration) {
	m.httpLatency[endpoint].Observe(d)
}

// ObserveStage records one pipeline stage's duration, creating the stage's
// histogram on first sight.
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	m.stageMu.Lock()
	h, ok := m.stageLatency[stage]
	if !ok {
		h = obs.NewHistogram(obs.LatencyBuckets()...)
		m.stageLatency[stage] = h
	}
	m.stageMu.Unlock()
	h.Observe(d)
}

// ObserveSpans walks a traced analysis's span tree and records the root
// (as stage "total") plus every top-level stage into the stage histograms.
func (m *Metrics) ObserveSpans(root *obs.Span) {
	if root == nil {
		return
	}
	m.ObserveStage("total", root.Dur)
	root.Walk(func(depth int, sp *obs.Span) {
		if depth == 1 {
			m.ObserveStage(sp.Name, sp.Dur)
		}
	})
}

// The replica's metric families, in exposition order. The gateway's
// fleet aggregator reads replica scrapes through these declarations.
var (
	FamRequests            = obs.Family{Name: "siwa_requests_total", Help: "requests received", Type: "counter", Labels: []string{"endpoint"}}
	FamAnalyses            = obs.Family{Name: "siwa_analyses_total", Help: "analyses executed (cache misses)", Type: "counter"}
	FamAnomalous           = obs.Family{Name: "siwa_anomalous_total", Help: "analyses that reported a possible deadlock or stall", Type: "counter"}
	FamTimeouts            = obs.Family{Name: "siwa_timeouts_total", Help: "analyses aborted by deadline or client disconnect", Type: "counter"}
	FamRequestErrors       = obs.Family{Name: "siwa_request_errors_total", Help: "requests rejected before analysis", Type: "counter"}
	FamShed                = obs.Family{Name: "siwa_shed_total", Help: "analyses rejected because the admission queue was full", Type: "counter"}
	FamDeadlineShed        = obs.Family{Name: "siwa_deadline_shed_total", Help: "requests refused because the propagated deadline budget was below the floor", Type: "counter"}
	FamPanics              = obs.Family{Name: "siwa_panics_total", Help: "panics recovered in pipeline stages, handlers, or batch items", Type: "counter"}
	FamDegraded            = obs.Family{Name: "siwa_degraded_total", Help: "analyses that fell back to the polynomial verdict", Type: "counter"}
	FamBatchItems          = obs.Family{Name: "siwa_batch_items_total", Help: "per-program outcomes inside batch requests", Type: "counter", Labels: []string{"outcome"}}
	FamCacheHits           = obs.Family{Name: "siwa_cache_hits_total", Help: "result cache hits", Type: "counter"}
	FamCacheMisses         = obs.Family{Name: "siwa_cache_misses_total", Help: "result cache misses", Type: "counter"}
	FamStageCacheHits      = obs.Family{Name: "siwa_stage_cache_hits_total", Help: "cache hits (rendered reports and memoized pipeline artifacts)", Type: "counter"}
	FamStageCacheMisses    = obs.Family{Name: "siwa_stage_cache_misses_total", Help: "cache misses (reports and artifacts)", Type: "counter"}
	FamStageCacheEvictions = obs.Family{Name: "siwa_stage_cache_evictions_total", Help: "cache byte-budget evictions (reports and artifacts)", Type: "counter"}
	FamStageCacheBuilds    = obs.Family{Name: "siwa_stage_cache_builds_total", Help: "cache artifact builds (single-flighted: at most one per distinct key while resident)", Type: "counter"}
	FamStageCacheBytes     = obs.Family{Name: "siwa_stage_cache_bytes", Help: "cache resident bytes (reports and artifacts)", Type: "gauge"}
	FamStageCacheEntries   = obs.Family{Name: "siwa_stage_cache_entries", Help: "cache current entries (reports and artifacts)", Type: "gauge"}
	FamInFlight            = obs.Family{Name: "siwa_inflight_requests", Help: "requests currently being served", Type: "gauge"}
	FamWorkers             = obs.Family{Name: "siwa_workers", Help: "worker pool concurrency bound", Type: "gauge"}
	FamWorkersBusy         = obs.Family{Name: "siwa_workers_busy", Help: "worker pool slots in use", Type: "gauge"}
	FamQueueDepth          = obs.Family{Name: "siwa_queue_depth", Help: "admission queue capacity", Type: "gauge"}
	FamQueued              = obs.Family{Name: "siwa_queued", Help: "admitted analyses waiting for a worker slot", Type: "gauge"}
	FamHTTPRequestSeconds  = obs.Family{Name: "siwa_http_request_seconds", Help: "request wall time by endpoint", Type: "histogram", Labels: []string{"endpoint"}}
	FamStageSeconds        = obs.Family{Name: "siwa_analyze_stage_seconds", Help: "pipeline stage time from traced analyses", Type: "histogram", Labels: []string{"stage"}}
)

// WriteTo renders every counter, histogram, and the cache and pool gauges
// in Prometheus text format, plus the trace-exporter counters and Go
// runtime telemetry. Families and label sets are emitted in a fixed order
// so the exposition is reproducible.
func (m *Metrics) WriteTo(w io.Writer, cache *siwa.StageCache, pool *Pool, exporter *obs.Exporter) {
	ss := cache.Stats() // nil-safe: zeros when caching is disabled
	FamRequests.Head(w)
	FamRequests.Sample(w, m.RequestsAnalyze.Load(), "analyze")
	FamRequests.Sample(w, m.RequestsBatch.Load(), "batch")
	FamAnalyses.Write(w, m.Analyses.Load())
	FamAnomalous.Write(w, m.Anomalous.Load())
	FamTimeouts.Write(w, m.Timeouts.Load())
	FamRequestErrors.Write(w, m.Errors.Load())
	FamShed.Write(w, m.Shed.Load())
	FamDeadlineShed.Write(w, m.DeadlineShed.Load())
	FamPanics.Write(w, m.Panics.Load())
	FamDegraded.Write(w, m.Degraded.Load())
	FamBatchItems.Head(w)
	for i, name := range batchOutcomeNames {
		FamBatchItems.Sample(w, m.BatchItems[i].Load(), name)
	}
	FamCacheHits.Write(w, m.CacheHits.Load())
	FamCacheMisses.Write(w, m.CacheMisses.Load())
	FamStageCacheHits.Write(w, ss.Hits)
	FamStageCacheMisses.Write(w, ss.Misses)
	FamStageCacheEvictions.Write(w, ss.Evictions)
	FamStageCacheBuilds.Write(w, ss.Builds)
	FamStageCacheBytes.Write(w, ss.Bytes)
	FamStageCacheEntries.Write(w, ss.Entries)
	FamInFlight.Write(w, m.InFlight.Load())
	FamWorkers.Write(w, pool.Size())
	FamWorkersBusy.Write(w, pool.InFlight())
	FamQueueDepth.Write(w, pool.QueueDepth())
	FamQueued.Write(w, pool.Queued())
	exporter.WriteProm(w, "siwa")
	obs.WriteRuntimeMetrics(w, "siwa")

	FamHTTPRequestSeconds.Head(w)
	for _, ep := range []string{"analyze", "batch"} {
		FamHTTPRequestSeconds.Histogram(w, m.httpLatency[ep], ep)
	}

	FamStageSeconds.Head(w)
	m.stageMu.Lock()
	stages := make([]string, 0, len(m.stageLatency))
	for name := range m.stageLatency {
		stages = append(stages, name)
	}
	hs := make([]*obs.Histogram, len(stages))
	sort.Strings(stages)
	for i, name := range stages {
		hs[i] = m.stageLatency[name]
	}
	m.stageMu.Unlock()
	for i, name := range stages {
		FamStageSeconds.Histogram(w, hs[i], name)
	}
}
