package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/service"
)

// marshalBatchRequest is a seam for tests: sub-batch marshalling cannot
// fail through the public API (every wire field is a plain type), so the
// regression test for the marshal-error cleanup path swaps it out.
var marshalBatchRequest = json.Marshal

// batchItem is one program riding through the scatter-gather machinery,
// pinned to its slot in the client's request so the merged response
// preserves input order no matter how the fleet reshuffles the work.
type batchItem struct {
	idx    int // position in the inbound request (and the results slice)
	prog   service.BatchProgram
	digest memo.Digest
}

// batchMeta is the batch-level envelope replicated onto every upstream
// sub-batch, as the client sent it. The batch's deadline lives in the
// context: each sub-batch's X-Deadline-Ms carries the time left when it
// is sent, and the replica takes the smaller of that and timeoutMs, so a
// chunk re-scattered after a slow first pass never gets the full budget
// all over again.
type batchMeta struct {
	options   *service.WireOptions
	timeoutMs int64
}

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	g.metrics.RequestsBatch.Add(1)
	start := time.Now()
	body, err := g.readBody(w, r)
	if err != nil {
		return
	}
	var req service.BatchRequest
	if err := service.DecodeJSON(bytes.NewReader(body), &req); err != nil {
		service.WriteError(w, service.CodeInvalidRequest, "invalid request body: %v", err)
		return
	}
	if len(req.Programs) == 0 {
		service.WriteError(w, service.CodeInvalidRequest, "empty batch")
		return
	}
	if len(req.Programs) > g.cfg.MaxBatch {
		service.WriteError(w, service.CodeInvalidRequest,
			"batch of %d exceeds limit %d", len(req.Programs), g.cfg.MaxBatch)
		return
	}
	items := make([]batchItem, len(req.Programs))
	for i, p := range req.Programs {
		items[i] = batchItem{idx: i, prog: p, digest: memo.SourceDigest(p.Source)}
	}
	results := make([]service.BatchResult, len(req.Programs))
	rctx, cancel := g.withDeadline(r.Context(), req.TimeoutMs)
	defer cancel()
	g.scatter(rctx, batchMeta{options: req.Options, timeoutMs: req.TimeoutMs}, items, results, 0)
	var ok, failed, unavailable int
	for i := range results {
		switch results[i].ErrorCode {
		case 0:
			ok++
			g.metrics.ItemsOK.Add(1)
		case service.CodeUnavailable:
			unavailable++
			g.metrics.ItemsUnavailable.Add(1)
		default:
			failed++
			g.metrics.ItemsError.Add(1)
		}
	}
	service.WriteJSON(w, http.StatusOK, service.BatchResponse{
		Results:   results,
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
	})
	g.edge.LogRequest(r, "batch", http.StatusOK, start,
		slog.Int("programs", len(results)),
		slog.Int("ok", ok),
		slog.Int("failed", failed),
		slog.Int("unavailable", unavailable))
}

// scatter shards items across the fleet by digest and runs every shard
// concurrently, each shard streaming to its owner in BatchChunk-sized
// sub-batches. pass counts re-sharding rounds: when a shard's owner
// becomes ineligible mid-stream (breaker opened, probe marked it down),
// the remaining items re-enter scatter and land on each digest's next
// ring candidate. The pass budget (one per backend) guarantees
// termination when the whole fleet is dying; items that exhaust it come
// back "unavailable". Every item's slot in results is written exactly
// once, and no two writers share a slot, so the merge is lock-free.
func (g *Gateway) scatter(ctx context.Context, meta batchMeta, items []batchItem, results []service.BatchResult, pass int) {
	if pass > 0 {
		// Mark the re-sharding round in the trace: the chaos case "replica
		// died mid-batch" shows up as a re-scatter span whose chunk spans
		// target the items' next ring candidates. StartChild is safe from
		// this shard goroutine; the span's own fields stay goroutine-local.
		sp := obs.TraceFromContext(ctx).RootSpan().StartChild("re-scatter")
		sp.Set("items", int64(len(items)))
		sp.Set("pass", int64(pass))
		defer sp.End()
	}
	if pass > len(g.backends) {
		for _, it := range items {
			results[it.idx] = unavailableResult(it, errNoBackend)
			g.metrics.Unavailable.Add(1)
		}
		return
	}
	shards := make(map[int][]batchItem)
	for _, it := range items {
		owner := -1
		for _, ci := range g.ring.Candidates(it.digest) {
			if g.backends[ci].eligible() {
				owner = ci
				break
			}
		}
		if owner < 0 {
			results[it.idx] = unavailableResult(it, errNoBackend)
			g.metrics.Unavailable.Add(1)
			continue
		}
		shards[owner] = append(shards[owner], it)
	}
	var wg sync.WaitGroup
	for ci, shard := range shards {
		wg.Add(1)
		go func(b *backend, shard []batchItem) {
			defer wg.Done()
			defer g.recoverShard(shard, results)
			for off := 0; off < len(shard); off += g.cfg.BatchChunk {
				end := off + g.cfg.BatchChunk
				if end > len(shard) {
					end = len(shard)
				}
				chunk := shard[off:end]
				if ctx.Err() != nil {
					for _, it := range chunk {
						results[it.idx] = service.BatchResult{
							ID:        it.prog.ID,
							Error:     fmt.Sprintf("batch aborted: %v", ctx.Err()),
							ErrorCode: service.CodeTimeout,
						}
					}
					continue
				}
				if !b.up.Load() || !b.breaker.Acquire() {
					// The owner died between chunks: re-shard everything
					// not yet sent, including this chunk. Each item moves
					// to its own next ring candidate.
					g.scatter(ctx, meta, shard[off:], results, pass+1)
					return
				}
				g.sendChunk(ctx, b, meta, chunk, results, pass)
			}
		}(g.backends[ci], shard)
	}
	wg.Wait()
}

// recoverShard, deferred by each shard goroutine, contains a panic the
// edge's recovery cannot see: it is counted, and each item of the shard
// still without a result answers internal inside the batch's 200.
func (g *Gateway) recoverShard(shard []batchItem, results []service.BatchResult) {
	rec := recover()
	if rec == nil {
		return
	}
	g.metrics.Panics.Add(1)
	for _, it := range shard {
		if res := &results[it.idx]; res.Report == nil && res.ErrorCode == 0 {
			*res = service.BatchResult{ID: it.prog.ID, Error: fmt.Sprintf("internal error: %v", rec), ErrorCode: service.CodeInternal}
		}
	}
}

// sendChunk forwards one sub-batch to its owner and merges the replica's
// results back into the client's slots. Transport failure marks exactly
// this chunk's items "unavailable" — they were in flight to a dead
// replica — and feeds the breaker so later chunks reroute. A whole-chunk
// 429/503 (the replica is shedding) is retried via re-scatter after
// honoring Retry-After; other upstream error bodies are propagated into
// the affected items verbatim, never rewrapped.
func (g *Gateway) sendChunk(ctx context.Context, b *backend, meta batchMeta, chunk []batchItem, results []service.BatchResult, pass int) {
	progs := make([]service.BatchProgram, len(chunk))
	for i, it := range chunk {
		progs[i] = it.prog
	}
	body, err := marshalBatchRequest(service.BatchRequest{
		Programs:  progs,
		Options:   meta.options,
		TimeoutMs: meta.timeoutMs,
	})
	if err != nil {
		// scatter acquired the probe slot for this chunk and send() is
		// what resolves it on every path; bailing out before send must
		// release the slot itself, or a half-open breaker stays stuck
		// forever with no probe ever reaching the backend.
		b.breaker.Release()
		for _, it := range chunk {
			results[it.idx] = service.BatchResult{
				ID:        it.prog.ID,
				Error:     fmt.Sprintf("marshal sub-batch: %v", err),
				ErrorCode: service.CodeInternal,
			}
		}
		return
	}
	// Every chunk gets its own sibling span under the request root, so a
	// scattered batch reads as parallel chunk spans each parenting its
	// replica's pipeline spans (via the traceparent send injects).
	sp := obs.TraceFromContext(ctx).RootSpan().StartChild("batch-chunk")
	sp.SetAttr("backend", b.name)
	sp.Set("items", int64(len(chunk)))
	sp.Set("pass", int64(pass))
	res, err := g.send(ctx, b, http.MethodPost, "/v1/analyze/batch", body, "", sp)
	if err != nil {
		sp.SetAttr("error", err.Error())
	} else {
		sp.Set("status", int64(res.status))
	}
	sp.End()
	if err != nil {
		for _, it := range chunk {
			results[it.idx] = unavailableResult(it, &unavailableError{backend: b.name, err: err})
			g.metrics.Unavailable.Add(1)
		}
		return
	}
	if retryable(res.status) && pass < len(g.backends) {
		// A re-scatter is a retry: it must clear the global retry budget
		// (the retried items fan back out across the ring, so no single
		// backend's bucket is the target) and fit the remaining deadline.
		switch {
		case !g.trySpendRetryGlobal():
			g.metrics.RetryBudgetExhausted.Add(1)
		case g.sleepRetry(ctx, pass, res.retryAfter):
			g.metrics.Retries.Add(1)
			g.scatter(ctx, meta, chunk, results, pass+1)
			return
		default:
			g.retryBudget.Refund() // deadline aborted the sleep; the retry never ran
		}
	}
	if res.status != http.StatusOK {
		// Upstream refused the whole chunk; relay its taxonomy error into
		// each affected item without rewrapping.
		code, msg := service.CodeInternal, fmt.Sprintf("upstream status %d", res.status)
		var er service.ErrorResponse
		if json.Unmarshal(res.body, &er) == nil && er.Error.Code != 0 {
			code, msg = er.Error.Code, er.Error.Message
		}
		for _, it := range chunk {
			results[it.idx] = service.BatchResult{ID: it.prog.ID, Error: msg, ErrorCode: code}
		}
		return
	}
	var br service.BatchResponse
	if err := json.Unmarshal(res.body, &br); err != nil || len(br.Results) != len(chunk) {
		for _, it := range chunk {
			results[it.idx] = service.BatchResult{
				ID:        it.prog.ID,
				Error:     fmt.Sprintf("malformed sub-batch response from %s", b.name),
				ErrorCode: service.CodeInternal,
			}
		}
		return
	}
	for i, r := range br.Results {
		results[chunk[i].idx] = r
	}
}

// unavailableResult is the per-item shape of a dead replica: the batch
// survives, the item reports the taxonomy code "unavailable".
func unavailableResult(it batchItem, err error) service.BatchResult {
	return service.BatchResult{
		ID:        it.prog.ID,
		Error:     err.Error(),
		ErrorCode: service.CodeUnavailable,
	}
}
