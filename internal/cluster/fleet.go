package cluster

import (
	"bufio"
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// StageQuantiles are latency quantiles for one pipeline stage, estimated
// from the replica's cumulative histogram buckets (linear interpolation
// inside the bucket that crosses each quantile, clamped to the last
// finite bound for tail samples in the +Inf bucket).
type StageQuantiles struct {
	Count uint64  `json:"count"`
	P50Ms float64 `json:"p50Ms"`
	P90Ms float64 `json:"p90Ms"`
	P99Ms float64 `json:"p99Ms"`
}

// FleetBackend is one replica's merged snapshot inside /v1/fleet/status.
type FleetBackend struct {
	Backend string `json:"backend"`
	// Up is the gateway's latest active-probe verdict; Breaker the
	// circuit-breaker state. Both are gateway-side facts, present even
	// when the scrape below failed.
	Up      bool   `json:"up"`
	Breaker string `json:"breaker"`
	// RingShare is the fraction of the hash keyspace this replica owns.
	RingShare float64 `json:"ringShare"`
	// Error reports a failed /metrics or /readyz scrape; the fields below
	// are zero when set.
	Error string `json:"error,omitempty"`
	Ready bool   `json:"ready"`
	// Replica-reported load and cache facts, scraped from /metrics.
	CacheHitRate float64 `json:"cacheHitRate"`
	CacheHits    uint64  `json:"cacheHits"`
	CacheMisses  uint64  `json:"cacheMisses"`
	Analyses     uint64  `json:"analyses"`
	Workers      int64   `json:"workers"`
	WorkersBusy  int64   `json:"workersBusy"`
	QueueDepth   int64   `json:"queueDepth"`
	Queued       int64   `json:"queued"`
	// Stages maps pipeline stage name to estimated latency quantiles,
	// from the service.FamStageSeconds histograms.
	Stages map[string]StageQuantiles `json:"stages,omitempty"`
}

// FleetStatus is the GET /v1/fleet/status body: one merged answer to "is
// the fleet healthy and balanced".
type FleetStatus struct {
	Backends []FleetBackend `json:"backends"`
	Total    int            `json:"total"`
	Eligible int            `json:"eligible"`
}

// handleFleetStatus scrapes every backend's /metrics and /readyz in
// parallel and merges them with the gateway's own view (probe verdicts,
// breaker states, ring ownership) into one JSON snapshot.
func (g *Gateway) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	own := g.ring.Ownership()
	out := FleetStatus{Backends: make([]FleetBackend, len(g.backends)), Total: len(g.backends)}
	var wg sync.WaitGroup
	for i, b := range g.backends {
		out.Backends[i] = FleetBackend{
			Backend:   b.name,
			Up:        b.up.Load(),
			Breaker:   b.breaker.State().String(),
			RingShare: own[i],
		}
		if b.eligible() {
			out.Eligible++
		}
		wg.Add(1)
		go func(fb *FleetBackend, b *backend) {
			defer wg.Done()
			g.scrapeBackend(r.Context(), fb, b)
		}(&out.Backends[i], b)
	}
	wg.Wait()
	service.WriteJSON(w, http.StatusOK, out)
}

// debugScrapeTimeout bounds the gateway's debug fetches from one replica:
// the fleet-status scrape and the trace-stitching lookup.
const debugScrapeTimeout = 2 * time.Second

// scrapeBackend fills fb from one replica's /readyz and /metrics. Debug
// traffic: bounded by debugScrapeTimeout, never fed to the breaker.
func (g *Gateway) scrapeBackend(ctx context.Context, fb *FleetBackend, b *backend) {
	cctx, cancel := context.WithTimeout(ctx, debugScrapeTimeout)
	defer cancel()
	ready, err := g.scrapeGet(cctx, b.name+"/readyz")
	if err != nil {
		fb.Error = err.Error()
		return
	}
	fb.Ready = ready.status == http.StatusOK
	metrics, err := g.scrapeGet(cctx, b.name+"/metrics")
	if err != nil {
		fb.Error = err.Error()
		return
	}
	samples := parsePromText(metrics.body)
	hits := samples.value(service.FamCacheHits.Name, nil)
	misses := samples.value(service.FamCacheMisses.Name, nil)
	if hits+misses > 0 {
		fb.CacheHitRate = hits / (hits + misses)
	}
	fb.CacheHits = uint64(hits)
	fb.CacheMisses = uint64(misses)
	fb.Analyses = uint64(samples.value(service.FamAnalyses.Name, nil))
	fb.Workers = int64(samples.value(service.FamWorkers.Name, nil))
	fb.WorkersBusy = int64(samples.value(service.FamWorkersBusy.Name, nil))
	fb.QueueDepth = int64(samples.value(service.FamQueueDepth.Name, nil))
	fb.Queued = int64(samples.value(service.FamQueued.Name, nil))
	fb.Stages = stageQuantiles(samples)
}

// scrapeGet performs one plain GET without touching the breaker: scrape
// failures already surface in the response, and a debug endpoint must
// never push a loaded replica toward an open circuit.
func (g *Gateway) scrapeGet(ctx context.Context, url string) (*upstream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readAllSized(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, err
	}
	return &upstream{status: resp.StatusCode, body: data}, nil
}

// promSample is one parsed exposition line: name, label set, value.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promSamples []promSample

// value returns the first sample matching name and every given label
// (nil labels = match any), or 0.
func (ps promSamples) value(name string, labels map[string]string) float64 {
	for _, s := range ps {
		if s.name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.value
		}
	}
	return 0
}

// parsePromText is a minimal Prometheus text-format parser: enough for
// the expositions the replicas produce (hand-rolled by internal/obs and
// internal/service, so the full grammar — escapes inside label values
// beyond \" and \\, exemplars, timestamps — is not needed).
func parsePromText(body []byte) promSamples {
	var out promSamples
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if s, ok := parsePromLine(line); ok {
			out = append(out, s)
		}
	}
	return out
}

func parsePromLine(line string) (promSample, bool) {
	var s promSample
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd < 0 {
		return s, false
	}
	s.name = line[:nameEnd]
	rest := line[nameEnd:]
	if rest[0] == '{' {
		close := strings.Index(rest, "}")
		if close < 0 {
			return s, false
		}
		s.labels = parsePromLabels(rest[1:close])
		rest = rest[close+1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, false
	}
	s.value = v
	return s, true
}

func parsePromLabels(spec string) map[string]string {
	labels := make(map[string]string, 2)
	for len(spec) > 0 {
		eq := strings.Index(spec, "=")
		if eq < 0 || len(spec) < eq+2 || spec[eq+1] != '"' {
			break
		}
		key := spec[:eq]
		rest := spec[eq+2:]
		var b strings.Builder
		i := 0
		for i < len(rest) && rest[i] != '"' {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
			}
			b.WriteByte(rest[i])
			i++
		}
		labels[key] = b.String()
		spec = rest[i:]
		spec = strings.TrimPrefix(spec, `"`)
		spec = strings.TrimPrefix(spec, ",")
	}
	return labels
}

// stageQuantiles rebuilds each stage's cumulative histogram from the
// _bucket samples and estimates p50/p90/p99.
func stageQuantiles(samples promSamples) map[string]StageQuantiles {
	type bucket struct {
		le  float64
		inf bool
		n   uint64
	}
	byStage := make(map[string][]bucket)
	for _, s := range samples {
		if s.name != service.FamStageSeconds.Name+"_bucket" {
			continue
		}
		stage := s.labels[service.FamStageSeconds.Labels[0]]
		le := s.labels["le"]
		b := bucket{n: uint64(s.value)}
		if le == "+Inf" {
			b.inf = true
		} else {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			b.le = v
		}
		byStage[stage] = append(byStage[stage], b)
	}
	if len(byStage) == 0 {
		return nil
	}
	out := make(map[string]StageQuantiles, len(byStage))
	for stage, bs := range byStage {
		sort.SliceStable(bs, func(i, j int) bool {
			if bs[i].inf != bs[j].inf {
				return bs[j].inf
			}
			return bs[i].le < bs[j].le
		})
		bounds := make([]float64, 0, len(bs))
		cum := make([]uint64, 0, len(bs))
		for _, b := range bs {
			if !b.inf {
				bounds = append(bounds, b.le)
			}
			cum = append(cum, b.n)
		}
		if len(cum) == 0 || cum[len(cum)-1] == 0 {
			continue
		}
		out[stage] = StageQuantiles{
			Count: cum[len(cum)-1],
			P50Ms: quantileFromBuckets(bounds, cum, 0.50) * 1000,
			P90Ms: quantileFromBuckets(bounds, cum, 0.90) * 1000,
			P99Ms: quantileFromBuckets(bounds, cum, 0.99) * 1000,
		}
	}
	return out
}

// quantileFromBuckets estimates the q-quantile (in seconds) from
// cumulative bucket counts parsed out of a replica's exposition, by way
// of obs.HistogramSnapshot.Quantile — the same interpolation the hedging
// path uses on live histograms, so fleet-reported and hedge-observed
// percentiles can never disagree about what a bucket layout means.
func quantileFromBuckets(bounds []float64, cumulative []uint64, q float64) float64 {
	if len(cumulative) == 0 {
		return 0
	}
	return obs.HistogramSnapshot{
		Bounds:     bounds,
		Cumulative: cumulative,
		Count:      cumulative[len(cumulative)-1],
	}.Quantile(q)
}
