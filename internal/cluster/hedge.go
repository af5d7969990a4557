package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// Hedged requests bound tail latency when one replica browns out: if the
// digest's owner has not answered within its own observed latency at the
// configured percentile, the gateway issues one speculative attempt to
// the next ring candidate and takes whichever answers first, cancelling
// the loser. Hedging is safe here by construction — analyses are pure
// functions of (source, options) and results are content-addressed. It is
// not free: the extra request is charged to the retry budget (hedges are
// disabled when the budget runs low, so speculation never competes with
// genuine retries during an outage), and the hedge makes a replica that
// does not own the digest analyze and cache the program a second time,
// which is why hedging is off unless HedgePercentile is set.

const (
	// hedgeMinSamples is how many latency observations a backend needs
	// before its own histogram drives the hedge delay.
	hedgeMinSamples = 16
	// hedgeFallbackDelay is the hedge delay for a cold backend.
	hedgeFallbackDelay = 100 * time.Millisecond
)

// hedgeEnabled reports whether this request may hedge: hedging is
// configured on, the request is a single analyze (batch chunks have their
// own re-scatter machinery), there is a second candidate to hedge to, and
// the retry budget is not running low.
func (g *Gateway) hedgeEnabled(path string, elig []*backend) bool {
	return g.cfg.HedgePercentile > 0 &&
		path == "/v1/analyze" &&
		len(elig) >= 2 &&
		!g.retryBudget.Low()
}

// hedgeDelay is how long the primary gets before the hedge fires: its own
// latency at the configured percentile, once enough samples exist.
func (g *Gateway) hedgeDelay(primary *backend) time.Duration {
	s := g.metrics.backend(primary.name).Latency.Snapshot()
	if s.Count < hedgeMinSamples {
		return hedgeFallbackDelay
	}
	d := time.Duration(s.Quantile(float64(g.cfg.HedgePercentile)/100) * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// pickHedge chooses and charges the hedge target: the first non-primary
// candidate whose breaker slot and retry tokens are both available. nil
// means no hedge this time.
func (g *Gateway) pickHedge(ctx context.Context, elig []*backend, primary *backend) *backend {
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < service.MinAttemptBudget {
		return nil // the deadline will kill the hedge before it helps
	}
	for _, b := range elig {
		if b == primary {
			continue
		}
		if !b.breaker.Acquire() {
			continue
		}
		if !g.trySpendRetry(b) {
			b.breaker.Release()
			return nil
		}
		return b
	}
	return nil
}

// attemptResult is one attempt's outcome crossing back to the
// coordinating goroutine. idx 0 is the primary, 1 the hedge.
type attemptResult struct {
	idx      int
	res      *upstream
	err      error
	panicked any
}

// sendAttempt runs one attempt on its own goroutine. A panic there would
// bypass the edge's recovery and kill the process, so it is delivered as
// the outcome (with err naming it) for hedgedAttempt to raise again.
func (g *Gateway) sendAttempt(ctx context.Context, idx int, b *backend, path string, body []byte, reqID string, sp *obs.Span, results chan<- attemptResult) {
	r := attemptResult{idx: idx}
	defer func() {
		if r.panicked = recover(); r.panicked != nil {
			r.err = fmt.Errorf("panic: %v", r.panicked)
		}
		results <- r
	}()
	r.res, r.err = g.send(ctx, b, http.MethodPost, path, body, reqID, sp)
}

// usable reports whether an attempt produced an answer worth relaying.
func (r *attemptResult) usable() bool {
	return r != nil && r.err == nil && !retryable(r.res.status)
}

// hedgedAttempt runs the first routing attempt with one speculative
// backup: the primary is sent immediately; if it has not answered within
// hedgeDelay, one hedge goes to the next candidate and the first usable
// answer wins, the loser's context is cancelled, and its send is drained
// before returning so nothing outlives the attempt.
//
// Concurrency contract with obs.Span: each attempt's span is created,
// attributed, and ended by THIS goroutine only. The sender goroutines
// receive the span purely for traceparent injection (immutable id reads)
// plus send's deadline_ms counter, and every such write is sequenced
// before this goroutine's End by the result-channel receive.
//
// A sender's panic is raised again here once every attempt is drained, so
// the edge answers 500 internal and counts it once, as when unhedged.
func (g *Gateway) hedgedAttempt(ctx context.Context, elig []*backend, path string, body []byte, reqID string, root *obs.Span) (*upstream, error) {
	primary := elig[0]
	pname := attemptSpanName(primary, 0)
	if !primary.breaker.Acquire() {
		return nil, errProbeLost
	}
	results := make(chan attemptResult, 2) // buffered: a loser's late send never blocks
	// Every received result passes through seen; a panic among them
	// overrides whatever is returned.
	var panicked any
	seen := func(r attemptResult) attemptResult {
		if panicked == nil {
			panicked = r.panicked
		}
		return r
	}
	defer func() {
		if panicked != nil {
			panic(panicked)
		}
	}()
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	psp := root.StartChild(pname)
	psp.SetAttr("backend", primary.name)
	psp.Set("attempt", 0)
	go g.sendAttempt(pctx, 0, primary, path, body, reqID, psp, results)

	// Phase 1: give the primary its hedge window.
	timer := time.NewTimer(g.hedgeDelay(primary))
	defer timer.Stop()
	select {
	case r := <-results:
		seen(r)
		finishAttemptSpan(psp, r.res, r.err)
		return g.finishUnhedged(ctx, primary, r)
	case <-ctx.Done():
		pcancel()
		r := seen(<-results)
		finishAttemptSpan(psp, r.res, r.err)
		return nil, ctx.Err()
	case <-timer.C:
	}

	// Phase 2: the primary is slow — launch the hedge if a candidate and
	// the budget allow.
	hedge := g.pickHedge(ctx, elig, primary)
	if hedge == nil {
		r := seen(<-results)
		finishAttemptSpan(psp, r.res, r.err)
		return g.finishUnhedged(ctx, primary, r)
	}
	g.metrics.Hedges.Add(1)
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	hsp := root.StartChild("hedge")
	hsp.SetAttr("backend", hedge.name)
	hsp.Set("attempt", 0)
	go g.sendAttempt(hctx, 1, hedge, path, body, reqID, hsp, results)

	spans := [2]*obs.Span{psp, hsp}
	cancels := [2]context.CancelFunc{pcancel, hcancel}
	first := seen(<-results)
	if first.usable() || first.panicked != nil {
		// Cancel and drain the loser before touching either span: the
		// drain sequences the loser goroutine's last span write before the
		// Ends below.
		cancels[1-first.idx]()
		loser := seen(<-results)
		finishAttemptSpan(spans[first.idx], first.res, first.err)
		finishAttemptSpan(spans[loser.idx], loser.res, loser.err)
		spans[loser.idx].SetAttr("hedge_outcome", "cancelled")
		if first.idx == 1 && panicked == nil {
			g.metrics.HedgeWins.Add(1)
		}
		return first.res, nil
	}
	// The first answer was a shed/timeout/transport failure: the other
	// attempt is still live and may yet produce a real answer — wait for
	// it rather than burning a retry.
	second := seen(<-results)
	finishAttemptSpan(spans[first.idx], first.res, first.err)
	finishAttemptSpan(spans[second.idx], second.res, second.err)
	if second.usable() {
		if second.idx == 1 {
			g.metrics.HedgeWins.Add(1)
		}
		return second.res, nil
	}
	// Neither attempt produced a usable answer: surface the PRIMARY's
	// outcome so hedging never changes the failure semantics the retry
	// loop and the client see.
	p := first
	if p.idx != 0 {
		p = second
	}
	return g.finishUnhedged(ctx, primary, p)
}

// finishUnhedged maps a lone attempt's outcome onto the routing loop's
// contract, mirroring attemptOne's error mapping.
func (g *Gateway) finishUnhedged(ctx context.Context, b *backend, r attemptResult) (*upstream, error) {
	if r.err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, &unavailableError{backend: b.name, err: r.err}
	}
	return r.res, nil
}
