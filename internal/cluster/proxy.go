package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"repro/internal/fault"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/service"
)

// upstream is one replica response, captured whole so it can be relayed
// byte-for-byte (and shared across single-flight waiters). Only the
// headers the gateway forwards are kept.
type upstream struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
	backend     *backend
	// instance is the backend's probed instance id when the request was
	// sent, and cacheHit records the replica's service.CacheHeader: what
	// the report cache needs to store the answer.
	instance string
	cacheHit bool
	// budgetExhausted marks a response whose retries were cut off by the
	// retry budget rather than MaxRetries; relay surfaces it as the
	// X-Retry-Budget: exhausted header so clients can tell "the fleet is
	// shedding and the gateway stopped amplifying" from an ordinary 429.
	budgetExhausted bool
}

// relay writes an upstream response to the client unchanged: same status,
// same body bytes. The gateway never rewraps a well-formed upstream error.
func (u *upstream) relay(w http.ResponseWriter) {
	if u.contentType != "" {
		w.Header().Set("Content-Type", u.contentType)
	}
	if u.retryAfter != "" {
		w.Header().Set("Retry-After", u.retryAfter)
	}
	if u.budgetExhausted {
		w.Header().Set("X-Retry-Budget", "exhausted")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(u.body)))
	w.WriteHeader(u.status)
	w.Write(u.body)
}

// readAllSized is io.ReadAll with a length hint, so relaying a response
// whose length is known up front costs one allocation instead of a
// growth chain. The buffer has one byte to spare, so the read after the
// hinted length sees EOF; only a body longer than its hint falls back to
// io.ReadAll for the rest. As in io.ReadAll, only io.EOF ends the body
// cleanly: any other error, io.ErrUnexpectedEOF from a body cut short
// included, comes back with the bytes read so far.
func readAllSized(r io.Reader, sizeHint int64) ([]byte, error) {
	if sizeHint <= 0 || sizeHint > 1<<24 {
		return io.ReadAll(r)
	}
	buf := make([]byte, sizeHint+1)
	for n := 0; n < len(buf); {
		m, err := r.Read(buf[n:])
		n += m
		if err == io.EOF {
			return buf[:n], nil
		}
		if err != nil {
			return buf[:n], err
		}
	}
	rest, err := io.ReadAll(r)
	return append(buf, rest...), err
}

// unavailableError reports that a backend could not be reached at the
// transport level; the breaker has already been fed.
type unavailableError struct {
	backend string
	err     error
}

func (e *unavailableError) Error() string {
	return fmt.Sprintf("replica %s unreachable: %v", e.backend, e.err)
}

// errNoBackend means routing found no eligible backend at all.
var errNoBackend = errors.New("no healthy backend available")

// send performs one upstream request and resolves the backend's breaker
// slot on every path: any HTTP response (whatever the status) proves the
// replica reachable (Success); a transport error counts toward opening
// the circuit (Fail); a send abandoned by the caller's own context is
// released without judgment (Release), and so is one that panics, before
// the panic goes on. The fault point "gateway.forward" fires before the
// network touch, so chaos tests can slow or sever the proxy path without
// real packet loss.
//
// sp names the span covering this call: when the request is traced, the
// W3C traceparent header carries (trace id, sp's span id) upstream, so
// the replica's spans hang under exactly the routing attempt (or batch
// chunk) that caused them. Nil sp falls back to the request root; health
// probes bypass send entirely and stay untraced.
func (g *Gateway) send(ctx context.Context, b *backend, method, path string, body []byte, reqID string, sp *obs.Span) (*upstream, error) {
	bm := g.metrics.backend(b.name)
	bm.Requests.Add(1)
	start := time.Now()
	defer func() {
		// A panic proves nothing about the backend either, but a half-open
		// probe slot it kept would refuse every later send for good.
		if rec := recover(); rec != nil {
			b.breaker.Release()
			panic(rec)
		}
	}()
	if err := fault.Inject("gateway.forward"); err != nil {
		bm.Failures.Add(1)
		b.breaker.Fail()
		return nil, err
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.name+path, rd)
	if err != nil {
		// Config bug: the backend was never contacted, so this proves
		// nothing about reachability either way — return the slot.
		b.breaker.Release()
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	if deadline, ok := ctx.Deadline(); ok {
		// Propagate the deadline as a remaining duration (not a wall-clock
		// time), so replica clock skew cannot corrupt it. The replica
		// adopts it as its context deadline and sheds outright when it is
		// below the admission floor.
		ms := time.Until(deadline).Milliseconds()
		if ms < 0 {
			ms = 0
		}
		req.Header.Set(service.DeadlineHeader, strconv.FormatInt(ms, 10))
		sp.Set("deadline_ms", ms)
	}
	if tp := obs.TraceFromContext(ctx).Traceparent(sp); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	// Read before the send: if the replica is replaced meanwhile, the
	// answer carries the old id and the report cache treats it as stale.
	instance := b.instanceID()
	resp, err := g.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The client went away or the deadline passed mid-send; that
			// says nothing about the backend. Return any half-open probe
			// slot Acquire consumed, or the breaker would be stuck.
			b.breaker.Release()
			return nil, ctx.Err()
		}
		bm.Failures.Add(1)
		b.breaker.Fail()
		return nil, err
	}
	data, err := readAllSized(resp.Body, resp.ContentLength)
	resp.Body.Close()
	if err != nil {
		if ctx.Err() != nil {
			b.breaker.Release()
			return nil, ctx.Err()
		}
		bm.Failures.Add(1)
		b.breaker.Fail()
		return nil, err
	}
	b.breaker.Success()
	bm.Latency.Observe(time.Since(start))
	if !retryable(resp.StatusCode) {
		// A useful answer funds future retries; a shed or timeout does not
		// (paying retry tokens out of pushback would let a drowning fleet
		// keep financing the retries that drown it).
		b.retry.Earn()
		g.retryBudget.Earn()
	}
	return &upstream{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        data,
		backend:     b,
		instance:    instance,
		cacheHit:    resp.Header.Get(service.CacheHeader) == service.CacheHit,
	}, nil
}

const (
	// retryBackoff is the base retry delay, doubled per attempt; an
	// upstream Retry-After hint overrides it.
	retryBackoff = 25 * time.Millisecond
	// retryAfterCap clamps how long the gateway honors an upstream
	// Retry-After hint: it holds a client connection while it waits.
	retryAfterCap = 2 * time.Second
)

// sleepRetry waits out the backoff before a retry attempt: the delay is
// drawn uniformly from [0, retryBackoff<<attempt] (full jitter — a
// synchronized herd of clients whose replica just recovered must not all
// retry in the same instant and shed it again), and an upstream
// Retry-After hint overrides it, clamped to retryAfterCap.
// Returns false if ctx expired first, or if the time left before ctx's
// deadline cannot cover the sleep plus another attempt — waiting out a
// backoff the deadline will kill anyway is pure waste.
func (g *Gateway) sleepRetry(ctx context.Context, attempt int, retryAfter string) bool {
	d := time.Duration(rand.Int64N(int64(retryBackoff<<attempt) + 1))
	if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
		d = min(time.Duration(secs)*time.Second, retryAfterCap)
	}
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < d+service.MinAttemptBudget {
		return false
	}
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// errProbeLost is the internal sentinel for an attempt that never started
// because the backend's half-open probe slot was already taken; the
// routing loop moves on to the next candidate.
var errProbeLost = errors.New("half-open probe slot taken")

// retryable reports whether an upstream status is worth another attempt:
// 429 (shed) and 503 (timeout/unavailable) are load conditions that a
// different replica may not share.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// attemptSpanName names an attempt span by what it is: the first routing
// decision, a retry after upstream pushback, or the single half-open
// probe that tests a recovering backend.
func attemptSpanName(b *backend, attempt int) string {
	if b.breaker.State() != BreakerClosed {
		return "breaker-probe"
	}
	if attempt > 0 {
		return "retry"
	}
	return "route"
}

// finishAttemptSpan closes an attempt span with its outcome.
func finishAttemptSpan(sp *obs.Span, res *upstream, err error) {
	sp.End()
	if err != nil {
		sp.SetAttr("error", err.Error())
		return
	}
	sp.Set("status", int64(res.status))
}

// attemptOne performs one routing attempt against b: acquire the breaker
// slot, trace it, send. Errors are mapped for the routing loop:
// errProbeLost means "never started, try the next candidate"; a context
// error means the client is gone; anything else is a transport-level
// unavailableError.
func (g *Gateway) attemptOne(ctx context.Context, b *backend, attempt int, path string, body []byte, reqID string, root *obs.Span) (*upstream, error) {
	name := attemptSpanName(b, attempt)
	if !b.breaker.Acquire() {
		return nil, errProbeLost
	}
	sp := root.StartChild(name)
	sp.SetAttr("backend", b.name)
	sp.Set("attempt", int64(attempt))
	res, err := g.send(ctx, b, http.MethodPost, path, body, reqID, sp)
	finishAttemptSpan(sp, res, err)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, &unavailableError{backend: b.name, err: err}
	}
	return res, nil
}

// forward routes one request body to the digest's owner, with bounded
// retry: 429 (shed) and 503 (timeout/unavailable) responses are retried
// against the next ring candidate after a jittered backoff, up to
// MaxRetries extra attempts — each retry spending a token from the retry
// budget, so a browned-out fleet sheds retries instead of being swamped
// by them; when retries run out (or the budget is exhausted) the last
// upstream response is relayed verbatim. A transport failure is NOT
// retried — the items in flight to a dying replica surface as
// "unavailable" immediately, the breaker opens after the threshold, and
// subsequent requests route around the corpse. Single analyzes on a
// hedging-enabled gateway race the first attempt against one speculative
// attempt to the next ring candidate (hedge.go).
func (g *Gateway) forward(ctx context.Context, d memo.Digest, path string, body []byte, reqID string) (*upstream, error) {
	elig := make([]*backend, 0, len(g.backends))
	for _, ci := range g.ring.Candidates(d) {
		if b := g.backends[ci]; b.eligible() {
			elig = append(elig, b)
		}
	}
	if len(elig) == 0 {
		return nil, errNoBackend
	}
	root := obs.TraceFromContext(ctx).RootSpan()
	var last *upstream
	maxRetries := g.cfg.retries()
	for attempt := 0; attempt <= maxRetries; attempt++ {
		b := elig[attempt%len(elig)]
		var res *upstream
		var err error
		if attempt == 0 && g.hedgeEnabled(path, elig) {
			res, err = g.hedgedAttempt(ctx, elig, path, body, reqID, root)
		} else {
			res, err = g.attemptOne(ctx, b, attempt, path, body, reqID, root)
		}
		if err != nil {
			if errors.Is(err, errProbeLost) {
				continue // lost the half-open probe slot; try the next candidate
			}
			return nil, err
		}
		if !retryable(res.status) {
			return res, nil
		}
		last = res
		if attempt == maxRetries {
			break
		}
		// The retry targets the NEXT candidate: charge its bucket (plus the
		// global one) before committing to another attempt.
		if !g.trySpendRetry(elig[(attempt+1)%len(elig)]) {
			g.metrics.RetryBudgetExhausted.Add(1)
			last.budgetExhausted = true
			break
		}
		g.metrics.Retries.Add(1)
		if !g.sleepRetry(ctx, attempt, res.retryAfter) {
			break
		}
	}
	if last != nil {
		return last, nil
	}
	return nil, errNoBackend
}

// withDeadline puts the request's end-to-end deadline on ctx: the
// client's timeoutMs (or the default), resolved as the replica resolves
// it. Retries, backoff sleeps and upstream calls all draw on it. A
// negative timeoutMs gets no deadline here: it is left for the replica to
// reject, so the error body comes from one place.
func (g *Gateway) withDeadline(ctx context.Context, timeoutMs int64) (context.Context, context.CancelFunc) {
	d, err := service.ResolveTimeout(timeoutMs, g.cfg.DefaultTimeout, g.cfg.MaxTimeout)
	if err != nil {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// readBody slurps the request body under the configured cap.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes)
	hint := r.ContentLength
	if hint > g.cfg.MaxBodyBytes {
		hint = 0 // let MaxBytesReader fail it without a giant allocation
	}
	data, err := readAllSized(r.Body, hint)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			service.WriteError(w, service.CodeTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return nil, err
		}
		service.WriteError(w, service.CodeInvalidRequest, "read body: %v", err)
		return nil, err
	}
	return data, nil
}

// writeRouteError maps a forward() failure onto the taxonomy: everything
// that kept the analysis from being attempted is "unavailable" (the
// client should back off and retry — the ring will have healed), except a
// client-side deadline, which stays "timeout", and the panic of the
// single-flight leader a follower waited on, which is "internal" as it
// was for the leader.
func (g *Gateway) writeRouteError(w http.ResponseWriter, err error) service.Code {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		service.WriteError(w, service.CodeTimeout, "request aborted: %v", err)
		return service.CodeTimeout
	}
	if errors.Is(err, memo.ErrLeaderPanicked) {
		service.WriteError(w, service.CodeInternal, "%v", err)
		return service.CodeInternal
	}
	g.metrics.Unavailable.Add(1)
	w.Header().Set("Retry-After", "1")
	service.WriteError(w, service.CodeUnavailable, "%v", err)
	return service.CodeUnavailable
}

func (g *Gateway) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	g.metrics.RequestsAnalyze.Add(1)
	start := time.Now()
	body, err := g.readBody(w, r)
	if err != nil {
		return
	}
	// The exact body keys both the report cache and single-flight. A repeat
	// the owning replica already answered from its own cache is answered
	// here, before any decode.
	key := sha256.Sum256(body)
	th := obs.TraceFromContext(r.Context())
	if report, ok := g.cachedReport(key); ok {
		th.RootSpan().SetAttr("report_cache", "hit")
		service.WriteJSON(w, http.StatusOK, service.AnalyzeResponse{
			Report:    report,
			Cached:    true,
			ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
		})
		g.edge.LogRequest(r, "analyze", http.StatusOK, start, slog.Bool("cached", true))
		return
	}
	// The gateway needs only the source (for the routing digest) and the
	// timeout (for the deadline); the replica owns full validation. A body
	// that is not JSON at all cannot be routed and is rejected here.
	var req struct {
		Source    string `json:"source"`
		TimeoutMs int64  `json:"timeoutMs"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		service.WriteError(w, service.CodeInvalidRequest, "invalid request body: %v", err)
		return
	}
	rctx, cancel := g.withDeadline(r.Context(), req.TimeoutMs)
	defer cancel()
	res, shared, err := g.flights.Do(rctx, key, func() (*upstream, error) {
		// The leader's answer is shared with followers whose requests are
		// still live, so its own client going away must not cancel it:
		// the upstream call runs detached from rctx's cancellation but
		// under its deadline (MaxTimeout when it has none).
		deadline, ok := rctx.Deadline()
		if !ok {
			deadline = time.Now().Add(g.cfg.MaxTimeout)
		}
		ctx, cancel := context.WithDeadline(context.WithoutCancel(rctx), deadline)
		defer cancel()
		res, err := g.forward(ctx, memo.SourceDigest(req.Source), "/v1/analyze", body, service.RequestID(r.Context()))
		if err == nil {
			g.storeReport(key, res)
		}
		return res, err
	})
	if shared {
		g.metrics.Dedup.Add(1)
		// A follower executed nothing: its trace shows one retroactive span
		// covering the wait for the leader's in-flight upstream call.
		sp := th.RootSpan().StartChild("single-flight-wait")
		sp.Start = start
		if res != nil {
			sp.SetAttr("backend", res.backend.name)
		}
		sp.End()
	}
	if err != nil {
		code := g.writeRouteError(w, err)
		g.edge.LogRequest(r, "analyze", code.Status(), start, slog.String("code", code.String()))
		return
	}
	th.RootSpan().SetAttr("backend", res.backend.name)
	res.relay(w)
	g.edge.LogRequest(r, "analyze", res.status, start,
		slog.String("backend", res.backend.name),
		slog.Bool("deduped", shared))
}

// handleAlgorithms relays the detector listing from any live replica —
// the listing is identical fleet-wide, so the first eligible backend
// wins and transport failures just try the next.
func (g *Gateway) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	for _, b := range g.backends {
		if !b.eligible() || !b.breaker.Acquire() {
			continue
		}
		res, err := g.send(r.Context(), b, http.MethodGet, "/v1/algorithms", nil, service.RequestID(r.Context()), nil)
		if err != nil {
			if cerr := r.Context().Err(); cerr != nil {
				// The client went away, not the fleet: report the cancel,
				// not a bogus "no healthy backend".
				g.writeRouteError(w, cerr)
				return
			}
			continue
		}
		res.relay(w)
		return
	}
	g.writeRouteError(w, errNoBackend)
}
