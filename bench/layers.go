package main

import (
	"sort"
	"time"
)

// perLayer lists the traced run's metrics. README.md gives, for each,
// the layer it measures and the end-to-end metric and workload it should
// move.
var perLayer = []metricDef{
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.conn_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.client_gateway_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.self_us_p99", Unit: "us", Better: "lower"},
	{Name: "cluster.upstream_calls_per_req", Unit: "calls/req", Better: "lower"},
	{Name: "cluster.dedup_share", Unit: "fraction", Better: "higher"},
	{Name: "cluster.batch_chunks_per_req", Unit: "chunks/req", Better: "lower"},
	{Name: "service.handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "service.result_hit_share", Unit: "fraction", Better: "higher"},
	{Name: "service.result_evictions", Unit: "count", Better: "lower"},
	{Name: "service.response_kb_mean", Unit: "KiB", Better: "lower"},
	{Name: "service.encode_us_mean", Unit: "us", Better: "lower"},
	{Name: "service.workers_busy_mean", Unit: "count", Better: "lower"},
	{Name: "service.queued_mean", Unit: "count", Better: "lower"},
	{Name: "service.shed", Unit: "count", Better: "lower"},
	{Name: "service.timeouts", Unit: "count", Better: "lower"},
	{Name: "memo.hit_share", Unit: "fraction", Better: "higher"},
	{Name: "memo.builds_per_distinct_key", Unit: "builds/key", Better: "lower"},
	{Name: "memo.evictions", Unit: "count", Better: "lower"},
	{Name: "memo.reported_mb", Unit: "MiB", Better: "lower"},
	{Name: "memo.heap_per_reported_byte", Unit: "B/B", Better: "lower"},
	{Name: "lang.parse_us_mean", Unit: "us", Better: "lower"},
	{Name: "lang.parse_allocs_mean", Unit: "allocs", Better: "lower"},
	{Name: "cfg.unroll_us_mean", Unit: "us", Better: "lower"},
	{Name: "sg.build_us_mean", Unit: "us", Better: "lower"},
	{Name: "sg.build_allocs_mean", Unit: "allocs", Better: "lower"},
	{Name: "sg.rendezvous_nodes_mean", Unit: "count", Better: "lower"},
	{Name: "sg.sync_edges_mean", Unit: "count", Better: "lower"},
	{Name: "core.analyzer_us_mean", Unit: "us", Better: "lower"},
	{Name: "core.analyzer_allocs_mean", Unit: "allocs", Better: "lower"},
	{Name: "core.detect_us_mean", Unit: "us", Better: "lower"},
	{Name: "core.hypotheses_mean", Unit: "count", Better: "lower"},
	{Name: "core.scc_runs_mean", Unit: "count", Better: "lower"},
	{Name: "core.witnesses_mean", Unit: "count", Better: "lower"},
	{Name: "core.enumerate_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "stall.us_mean", Unit: "us", Better: "lower"},
	{Name: "waves.exact_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "siwa.report_json_us_mean", Unit: "us", Better: "lower"},
	{Name: "pipeline.front_share", Unit: "fraction", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "fraction", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.join_share", Unit: "fraction", Better: "higher"},
}

// extraLayer are traced-run numbers kept in the record but not gated
// per_layer metrics, because some workloads have nothing to measure:
// batch merge needs batches, and the queue wait is exactly zero where the
// result cache answers everything.
var extraLayer = []metricDef{
	{Name: "cluster.batch_merge_us_p50", Unit: "us", Better: "lower"},
	{Name: "service.queue_wait_ms_mean", Unit: "ms", Better: "lower"},
}

// layerMetrics derives the per-layer metrics from a traced round, its
// untraced twin (fleet counters and runtime numbers come from the
// untraced round, so tracing cannot skew them) and the stage replay.
func layerMetrics(untraced, traced *roundOut, uScore, tScore roundScore, distinctKeys int) (map[string]float64, joinStats) {
	m := map[string]float64{}
	d := untraced.Fleet.Delta
	var lags, waits []float64
	for i := range traced.Results {
		lags = append(lags, ms(traced.Results[i].Lag))
		waits = append(waits, ms(traced.Results[i].ConnWait))
	}
	sort.Float64s(lags)
	sort.Float64s(waits)
	m["loadgen.lag_p99_ms"] = percentile(lags, 0.99)
	m["loadgen.conn_wait_p99_ms"] = percentile(waits, 0.99)

	// Join spans by trace id.
	gw := map[string]span{}
	reps := map[string][]span{}
	var handler, outKB []float64
	var repBatch, gwBatch int
	for _, sp := range traced.Fleet.Spans {
		if sp.Layer == 0 {
			gw[sp.Trace] = sp
			if sp.Batch {
				gwBatch++
			}
			continue
		}
		reps[sp.Trace] = append(reps[sp.Trace], sp)
		handler = append(handler, float64(sp.End-sp.Start)/1e3)
		outKB = append(outKB, float64(sp.Out)/1024)
		if sp.Batch {
			repBatch++
		}
	}
	var js joinStats
	var wire, self, merge []float64
	for i := range traced.Results {
		r := &traced.Results[i]
		js.Requests++
		g, ok := gw[r.Trace]
		if !ok {
			continue
		}
		js.Gateway++
		if len(reps[r.Trace]) > 0 {
			js.Joined++
		}
		wire = append(wire, float64(r.End-r.Sent-r.ConnWait-time.Duration(g.End-g.Start))/1e3)
		st, last := selfTime(g, reps[r.Trace])
		if st < 0 {
			js.NegativeSelf++
		}
		self = append(self, float64(st)/1e3)
		if g.Batch && last > 0 {
			merge = append(merge, float64(g.End-last)/1e3)
		}
	}
	js.Dedup = int(traced.Fleet.Delta.Dedup)
	for _, xs := range [][]float64{wire, self, merge, handler} {
		sort.Float64s(xs)
	}
	m["wire.client_gateway_us_p50"] = percentile(wire, 0.5)
	m["cluster.self_us_p50"] = percentile(self, 0.5)
	m["cluster.self_us_p99"] = percentile(self, 0.99)
	m["cluster.batch_merge_us_p50"] = percentile(merge, 0.5)
	m["service.handler_us_p50"] = percentile(handler, 0.5)
	m["service.response_kb_mean"] = mean(outKB)
	m["cluster.batch_chunks_per_req"] = ratio(float64(repBatch), float64(gwBatch))
	m["trace.join_share"] = ratio(float64(js.Joined+js.Dedup), float64(js.Requests))

	gwReqs := float64(d.GatewayAnalyze + d.GatewayBatch)
	m["cluster.upstream_calls_per_req"] = ratio(float64(d.Upstream), gwReqs)
	m["cluster.dedup_share"] = ratio(float64(d.Dedup), float64(d.GatewayAnalyze))
	m["service.result_hit_share"] = ratio(float64(d.ResultHits), float64(d.ResultHits+d.ResultMisses))
	m["service.result_evictions"] = float64(d.ResultEvicted)
	m["service.workers_busy_mean"] = traced.Fleet.BusyMean
	m["service.queued_mean"] = traced.Fleet.QueuedMean
	// Little's law: mean queue length over the arrival rate of analyses.
	m["service.queue_wait_ms_mean"] = 1e3 * ratio(traced.Fleet.QueuedMean,
		float64(traced.Fleet.Delta.Analyses)/traced.Fleet.Elapsed)
	m["service.shed"] = float64(d.Shed)
	m["service.timeouts"] = float64(d.Timeouts)
	m["memo.hit_share"] = ratio(float64(d.StageHits), float64(d.StageHits+d.StageMisses))
	m["memo.builds_per_distinct_key"] = ratio(float64(d.StageBuilds), float64(distinctKeys))
	m["memo.evictions"] = float64(d.StageEvicted)
	m["memo.reported_mb"] = float64(untraced.Fleet.StageBytes) / (1 << 20)
	m["memo.heap_per_reported_byte"] = ratio(float64(untraced.Fleet.HeapInuse), float64(untraced.Fleet.StageBytes))
	m["runtime.gc_cpu_share"] = ratio(d.GCCPUSeconds, d.AllCPUSeconds)
	m["runtime.gc_cycles"] = float64(d.GCCycles)
	m["runtime.cpu_ms_per_op"] = 1e3 * ratio(d.CPUSeconds, float64(uScore.Attempted-uScore.Failed))
	u, t := uScore.Values["throughput_ops"], tScore.Values["throughput_ops"]
	m["trace.overhead_pct"] = 100 * ratio(u-t, u)
	return m, js
}

// joinStats counts how the traced run's client requests matched spans.
// A single-flight follower shares its leader's replica call, so it has a
// gateway span but no replica span of its own: Dedup of those are
// expected.
type joinStats struct {
	Requests     int `json:"requests"`
	Gateway      int `json:"gateway"`
	Joined       int `json:"joined"`
	Dedup        int `json:"dedup"`
	NegativeSelf int `json:"negativeSelf"`
}

// selfTime is the gateway span's duration minus the part of it its
// replica spans cover, and the end of the last replica span.
func selfTime(g span, children []span) (time.Duration, int64) {
	type iv struct{ s, e int64 }
	var ivs []iv
	var last int64
	for _, c := range children {
		s, e := max(c.Start, g.Start), min(c.End, g.End)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
		last = max(last, c.End)
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered, curS, curE int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curS, curE = v.s, v.e
		case v.s > curE:
			covered += curE - curS
			curS, curE = v.s, v.e
		default:
			curE = max(curE, v.e)
		}
	}
	if len(ivs) > 0 {
		covered += curE - curS
	}
	return time.Duration(g.End - g.Start - covered), last
}
