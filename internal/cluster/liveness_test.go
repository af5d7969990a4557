package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/memo"
	"repro/internal/service"
)

// Each backend's routing flag and failure count behave as a circuit
// breaker with no probe slot: FailureThreshold consecutive transport
// failures open it (up=false), only a passing health probe lets the
// backend back in, half-open (its count still at the threshold), and
// there the first HTTP answer closes it (the count resets) while one
// transport failure opens it again. The tests below pin one rule each,
// named after the breaker rule it replaces. No step sleeps: a replica
// that must hang blocks on its request's context.

// logRecords is a slog.Handler that keeps every record it is given.
type logRecords struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *logRecords) Enabled(context.Context, slog.Level) bool { return true }
func (h *logRecords) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *logRecords) WithGroup(string) slog.Handler            { return h }

func (h *logRecords) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.recs = append(h.recs, r.Clone())
	h.mu.Unlock()
	return nil
}

// trips returns the kept "backend health changed" records whose reason
// is transport.
func (h *logRecords) trips() []slog.Record {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []slog.Record
	for _, r := range h.recs {
		if r.Message != "backend health changed" {
			continue
		}
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "reason" && a.Value.String() == "transport" {
				out = append(out, r)
			}
			return true
		})
	}
	return out
}

// attr returns the value of r's attribute key, "" when r has none.
func attr(r slog.Record, key string) string {
	var v string
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == key {
			v = a.Value.String()
		}
		return a.Key != key
	})
	return v
}

// livenessThreshold is the FailureThreshold of a livenessRig's gateway.
const livenessThreshold = 2

// livenessRig is a three-replica fleet behind a gateway, with src a
// program whose digest backend 0 owns and helpers that break backend 0
// and read its flag and count.
type livenessRig struct {
	t    *testing.T
	f    *fleet
	g    *Gateway
	url  string
	logs *logRecords
	src  string
	n    int // bodies handed out by fresh
}

// newLivenessRig builds a rig whose gateway has the given
// FailureThreshold and has probed every backend once.
func newLivenessRig(t *testing.T, threshold int) *livenessRig {
	t.Helper()
	f := newFleet(t, 3, service.Config{})
	logs := &logRecords{}
	g, gts := newTestGateway(t, f.urls, Config{
		FailureThreshold: threshold,
		RetryBudgetRatio: -1, // the steps below retry more than a default bucket holds
		Logger:           slog.New(logs),
	})
	g.CheckNow(context.Background())
	return &livenessRig{t: t, f: f, g: g, url: gts.URL, logs: logs, src: ownedBy(t, g, 0)}
}

// fresh returns an analyze request for src that no earlier call
// returned. Bodies that differ only in timeoutMs share the routing digest
// but not the single-flight or report-cache key.
func (r *livenessRig) fresh() service.AnalyzeRequest {
	r.n++
	return service.AnalyzeRequest{Source: r.src, TimeoutMs: int64(60_000 + r.n)}
}

func (r *livenessRig) set(i int, fn func(wr *wrapped)) {
	r.f.wraps[i].mu.Lock()
	fn(r.f.wraps[i])
	r.f.wraps[i].mu.Unlock()
}

// kill makes backend 0 abort every request, or stop doing so.
func (r *livenessRig) kill(dead bool) { r.set(0, func(wr *wrapped) { wr.killed = dead }) }

func (r *livenessRig) post(req service.AnalyzeRequest, wantStatus int) []byte {
	r.t.Helper()
	resp, data := postJSON(r.t, r.url+"/v1/analyze", req)
	if resp.StatusCode != wantStatus {
		r.t.Fatalf("status=%d body=%s, want %d", resp.StatusCode, data, wantStatus)
	}
	return data
}

// want checks backend 0's routing flag and failure count.
func (r *livenessRig) want(step string, up bool, failures int64) {
	r.t.Helper()
	if got := r.g.BackendUp(0); got != up {
		r.t.Fatalf("%s: up=%v, want %v", step, got, up)
	}
	if got := r.g.backends[0].failures.Load(); got != failures {
		r.t.Fatalf("%s: failures=%d, want %d", step, got, failures)
	}
}

// fail sends one request that backend 0, killed, fails at the transport.
func (r *livenessRig) fail() {
	r.t.Helper()
	r.kill(true)
	r.post(r.fresh(), http.StatusServiceUnavailable)
	r.kill(false)
}

// trip takes backend 0 out with threshold consecutive transport failures.
func (r *livenessRig) trip(threshold int) {
	r.t.Helper()
	for k := 0; k < threshold; k++ {
		r.fail()
	}
	r.want("tripped", false, int64(threshold))
}

// readmit lets a passing probe take backend 0 back in, half-open.
func (r *livenessRig) readmit(failures int64) {
	r.t.Helper()
	r.g.CheckNow(context.Background())
	r.want("after a passing probe", true, failures)
}

// skipped requires a fresh request for src to be answered without
// reaching backend 0.
func (r *livenessRig) skipped(step string) {
	r.t.Helper()
	calls := r.f.wraps[0].analyzeCalls()
	r.post(r.fresh(), http.StatusOK)
	if got := r.f.wraps[0].analyzeCalls(); got != calls {
		r.t.Fatalf("%s: backend 0 received %d calls, want none", step, got-calls)
	}
}

// answers requires backend 0 to answer a fresh request for src, which
// closes it: the count resets.
func (r *livenessRig) answers(step string) {
	r.t.Helper()
	calls := r.f.wraps[0].analyzeCalls()
	r.post(r.fresh(), http.StatusOK)
	if got := r.f.wraps[0].analyzeCalls(); got != calls+1 {
		r.t.Fatalf("%s: backend 0 received %d calls, want 1", step, got-calls)
	}
	r.want(step, true, 0)
}

// holdUntilGone blocks a replica's handler until the gateway gives up on
// it: the server ends the request's context when its client goes away,
// but only once the body has been read.
func holdUntilGone(req *http.Request) {
	io.Copy(io.Discard, req.Body)
	<-req.Context().Done()
}

// TestBreakerOpensAtThreshold: FailureThreshold consecutive transport
// failures take a backend out, the trip is logged once, at WARN, with
// reason=transport, and a request for its digest then never reaches it,
// even with the replica back, until a probe passes.
func TestBreakerOpensAtThreshold(t *testing.T) {
	r := newLivenessRig(t, livenessThreshold)
	for k := 1; k < livenessThreshold; k++ {
		r.fail()
		r.want("below the threshold", true, int64(k))
	}
	r.fail()
	r.want("at the threshold", false, livenessThreshold)
	trips := r.logs.trips()
	if len(trips) != 1 || trips[0].Level != slog.LevelWarn ||
		attr(trips[0], "backend") != r.f.urls[0] || attr(trips[0], "up") != "false" {
		t.Fatalf("trip records=%v, want one WARN for %s with up=false", trips, r.f.urls[0])
	}
	r.skipped("taken out")
	r.skipped("taken out, again")
}

// TestBreakerMinimumThreshold: a FailureThreshold below 1 is unset, and
// the gateway takes a backend out at the default, the third consecutive
// transport failure.
func TestBreakerMinimumThreshold(t *testing.T) {
	for _, threshold := range []int{0, -1} {
		r := newLivenessRig(t, threshold)
		r.fail()
		r.fail()
		r.want("two failures", true, 2)
		r.fail()
		r.want("three failures", false, 3)
	}
}

// TestBreakerSuccessResetsFailureCount: an HTTP answer resets the count,
// so transport failures that are not consecutive never take a backend
// out.
func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	r := newLivenessRig(t, livenessThreshold)
	for k := 1; k < livenessThreshold; k++ {
		r.fail()
	}
	r.want("threshold-1 failures", true, livenessThreshold-1)
	r.answers("after a 200")
	for k := 1; k < livenessThreshold; k++ {
		r.fail()
	}
	r.want("threshold-1 failures after an answer", true, livenessThreshold-1)
}

// TestBreakerHalfOpenProbe: only a passing probe lets a backend that was
// taken out back in, and it leaves the count at the threshold; the first
// answer the backend gives then resets it.
func TestBreakerHalfOpenProbe(t *testing.T) {
	r := newLivenessRig(t, livenessThreshold)
	r.trip(livenessThreshold)
	r.skipped("before a probe")
	r.readmit(livenessThreshold)
	r.answers("after its first answer")
}

// TestBreakerFailedProbeReopens: a re-admitted backend keeps its count,
// so one transport failure before any answer takes it out again, logged
// as a second trip. A failed probe keeps it out; the next passing one
// lets it back in.
func TestBreakerFailedProbeReopens(t *testing.T) {
	r := newLivenessRig(t, livenessThreshold)
	r.trip(livenessThreshold)
	r.readmit(livenessThreshold)
	r.fail()
	r.want("one failure after re-admission", false, livenessThreshold+1)
	if got := len(r.logs.trips()); got != 2 {
		t.Fatalf("trip records=%d, want 2 (one per trip)", got)
	}
	r.kill(true)
	r.g.CheckNow(context.Background())
	r.want("after a failed probe", false, livenessThreshold+1)
	r.kill(false)
	r.skipped("after a failed probe")
	r.readmit(livenessThreshold + 1)
	r.answers("after its first answer")
}

// TestGatewayCancelledProbeReleasesBreaker: a send cancelled while the
// replica holds it says nothing about the backend. Sent to a half-open
// backend, it leaves the backend in with its count as it was, so the
// next request still reaches it and resets the count.
func TestGatewayCancelledProbeReleasesBreaker(t *testing.T) {
	r := newLivenessRig(t, livenessThreshold)
	r.trip(livenessThreshold)
	r.readmit(livenessThreshold)

	arrived := make(chan struct{})
	r.set(0, func(wr *wrapped) {
		wr.intercept = func(w http.ResponseWriter, req *http.Request) bool {
			arrived <- struct{}{}
			holdUntilGone(req)
			return true
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		data, _ := json.Marshal(r.fresh())
		_, err := r.g.forward(ctx, memo.SourceDigest(r.src), "/v1/analyze", data, "")
		done <- err
	}()
	<-arrived
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled send: err=%v, want context.Canceled", err)
	}
	r.want("after a cancelled send", true, livenessThreshold)

	r.set(0, func(wr *wrapped) { wr.intercept = nil })
	r.answers("after the next request")
}

// TestGatewayHalfOpenProbePanicReleasesBreaker: a send that panics
// answers 500 internal and counts nothing against the backend. Sent to a
// half-open backend, it leaves the backend in with its count as it was,
// so once the fault is gone the next request reaches it and resets the
// count.
func TestGatewayHalfOpenProbePanicReleasesBreaker(t *testing.T) {
	defer fault.Reset()
	r := newLivenessRig(t, livenessThreshold)
	r.trip(livenessThreshold)
	r.readmit(livenessThreshold)

	fault.Set("gateway.forward", fault.Mode{Kind: fault.KindPanic})
	resp, data := postJSON(t, r.url+"/v1/analyze", r.fresh())
	wantInternal(t, resp, data)
	fault.Reset()
	r.want("after a panicking send", true, livenessThreshold)
	r.answers("after the fault cleared")
}

// TestGatewayBackendLiveness pins what else reads the routing flag: 429
// and 503 answers reset the count and never take a backend out, a retry
// and a hedge skip a backend taken out since their request started, and
// a tripped backend's report cache entries are refused until a probe
// re-admits the same instance.
func TestGatewayBackendLiveness(t *testing.T) {
	ctx := context.Background()
	r := newLivenessRig(t, livenessThreshold)
	f, g := r.f, r.g
	cands := g.Ring().Candidates(memo.SourceDigest(r.src))
	c1, c2 := cands[1], cands[2]

	// This body is stored in the gateway's report cache under backend 0:
	// the replica answers its second sight from its own cache, and the
	// gateway answers the third.
	stored := r.fresh()
	r.post(stored, http.StatusOK)
	r.post(stored, http.StatusOK)
	var ar service.AnalyzeResponse
	if err := json.Unmarshal(r.post(stored, http.StatusOK), &ar); err != nil || !ar.Cached {
		t.Fatalf("third sight: cached=%v err=%v, want a report cache answer", ar.Cached, err)
	}
	if got := g.Metrics().ReportHits.Load(); got != 1 {
		t.Fatalf("report hits=%d, want 1", got)
	}

	// Once backend 0 is taken out, its report cache entry is refused and
	// counted stale, and the request goes to a live candidate.
	r.trip(livenessThreshold)
	calls := f.wraps[0].analyzeCalls()
	r.post(stored, http.StatusOK)
	if got := f.wraps[0].analyzeCalls(); got != calls {
		t.Fatalf("backend taken out received %d calls", got-calls)
	}
	if got := g.Metrics().ReportStale.Load(); got != 1 {
		t.Fatalf("report stale=%d, want 1", got)
	}

	// A passing probe re-admits the same instance, whose entry is served
	// again.
	r.readmit(livenessThreshold)
	if err := json.Unmarshal(r.post(stored, http.StatusOK), &ar); err != nil || !ar.Cached {
		t.Fatalf("after re-admission: cached=%v err=%v, want a report cache answer", ar.Cached, err)
	}
	if got := g.Metrics().ReportHits.Load(); got != 2 {
		t.Fatalf("report hits=%d, want 2", got)
	}

	// 429 and 503 answers are answers: each resets the count, and however
	// many come in a row, they never take the backend out. The retry lands
	// on the next candidate.
	for _, code := range []service.Code{service.CodeShed, service.CodeTimeout} { // 429, 503
		r.set(0, func(wr *wrapped) {
			wr.intercept = func(w http.ResponseWriter, req *http.Request) bool {
				w.Header().Set("Retry-After", "0")
				service.WriteError(w, code, "synthetic %d", code.Status())
				return true
			}
		})
		for k := 0; k <= livenessThreshold; k++ {
			r.post(r.fresh(), http.StatusOK)
			r.want("after a "+code.String()+" answer", true, 0)
		}
	}

	// A retry re-checks its target: backend 0 sheds the first attempt, and
	// by then c1, the retry's target, has failed a probe.
	c1Calls, c2Calls := f.wraps[c1].analyzeCalls(), f.wraps[c2].analyzeCalls()
	r.set(0, func(wr *wrapped) {
		wr.intercept = func(w http.ResponseWriter, req *http.Request) bool {
			f.wraps[c1].setNotReady(true)
			g.CheckNow(ctx)
			w.Header().Set("Retry-After", "0")
			service.WriteError(w, service.CodeShed, "synthetic shed")
			return true
		}
	})
	r.post(r.fresh(), http.StatusOK)
	if got := f.wraps[c1].analyzeCalls(); got != c1Calls {
		t.Fatalf("retry reached backend %d, taken out since the request started", c1)
	}
	if got := f.wraps[c2].analyzeCalls(); got != c2Calls+1 {
		t.Fatalf("backend %d calls=%d, want %d: the retry skips to it", c2, got, c2Calls+1)
	}
	f.wraps[c1].setNotReady(false)

	// A hedge re-checks its target too: on a hedging gateway whose c1 fails
	// a probe while backend 0 holds the primary, the hedge goes to c2, and
	// the cancelled primary counts nothing against backend 0.
	hg, hts := newTestGateway(t, f.urls, Config{HedgePercentile: 50})
	c1Calls, c2Calls = f.wraps[c1].analyzeCalls(), f.wraps[c2].analyzeCalls()
	r.set(0, func(wr *wrapped) {
		wr.intercept = func(w http.ResponseWriter, req *http.Request) bool {
			f.wraps[c1].setNotReady(true)
			hg.CheckNow(ctx)
			holdUntilGone(req)
			return true
		}
	})
	if resp, data := postJSON(t, hts.URL+"/v1/analyze", r.fresh()); resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request: status=%d body=%s", resp.StatusCode, data)
	}
	if h, w := hg.Metrics().Hedges.Load(), hg.Metrics().HedgeWins.Load(); h != 1 || w != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", h, w)
	}
	if got := f.wraps[c1].analyzeCalls(); got != c1Calls {
		t.Fatalf("hedge reached backend %d, taken out since the request started", c1)
	}
	if got := f.wraps[c2].analyzeCalls(); got != c2Calls+1 {
		t.Fatalf("backend %d calls=%d, want %d: the hedge goes to it", c2, got, c2Calls+1)
	}
	if !hg.BackendUp(0) || hg.backends[0].failures.Load() != 0 {
		t.Fatalf("cancelled hedge loser: up=%v failures=%d, want up with none",
			hg.BackendUp(0), hg.backends[0].failures.Load())
	}
	if got := len(r.logs.trips()); got != 1 {
		t.Fatalf("trip records=%d, want 1", got)
	}
}
