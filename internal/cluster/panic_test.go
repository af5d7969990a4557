package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/memo"
	"repro/internal/service"
	"repro/internal/workload"
)

// A panic on the gateway's upstream path (armed here at the
// "gateway.forward" fault point, which fires inside send) must answer its
// own request with 500 internal, be counted once, and leave nothing
// behind that a later request could wait on for ever: no single-flight
// key, no half-open breaker slot, no dead process.

// wantInternal fails unless the response is the edge's 500 internal.
func wantInternal(t *testing.T, resp *http.Response, data []byte) {
	t.Helper()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status=%d body=%s, want 500", resp.StatusCode, data)
	}
	if eb := decodeError(t, data); eb.Code != service.CodeInternal {
		t.Fatalf("code=%q, want %q", eb.Code, service.CodeInternal)
	}
}

// TestGatewaySingleFlightLeaderPanicFreesKey: a single-flight leader that
// panics ends its flight, so the next identical body leads a new one and
// gets its 200, instead of waiting out its whole budget on a flight no
// one will end.
func TestGatewaySingleFlightLeaderPanicFreesKey(t *testing.T) {
	defer fault.Reset()
	f := newFleet(t, 1, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{})
	req := service.AnalyzeRequest{Source: workload.Ring(3).String(), TimeoutMs: 500}

	fault.Set("gateway.forward", fault.Mode{Kind: fault.KindPanic})
	resp, data := postJSON(t, gts.URL+"/v1/analyze", req)
	wantInternal(t, resp, data)

	fault.Reset()
	resp, data = postJSON(t, gts.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("same body after the panic: status=%d body=%s, want 200", resp.StatusCode, data)
	}
	if got := g.Metrics().Panics.Load(); got != 1 {
		t.Fatalf("panics=%d, want 1", got)
	}
	// A follower that was waiting on the panicking leader is answered as
	// the leader was, and the fleet is not reported unavailable.
	rec := httptest.NewRecorder()
	g.writeRouteError(rec, memo.ErrLeaderPanicked)
	wantInternal(t, rec.Result(), rec.Body.Bytes())
	if got := g.Metrics().Unavailable.Load(); got != 0 {
		t.Fatalf("unavailable=%d, want 0", got)
	}
}

// TestGatewayHalfOpenProbePanicReleasesBreaker: a panic during the
// half-open probe returns the probe slot, so once the fault is gone the
// next request probes again and closes the breaker. A kept slot would
// leave the breaker half-open for good and every later analyze answered
// "no healthy backend available".
func TestGatewayHalfOpenProbePanicReleasesBreaker(t *testing.T) {
	defer fault.Reset()
	f := newFleet(t, 1, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{BreakerThreshold: 1})
	br := g.backends[0].breaker
	br.Fail() // threshold 1: one transport failure opens the circuit
	later := time.Now().Add(time.Hour)
	br.now = func() time.Time { return later } // the cooldown has elapsed

	fault.Set("gateway.forward", fault.Mode{Kind: fault.KindPanic})
	resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: workload.Ring(3).String()})
	wantInternal(t, resp, data)
	if got := br.State(); got != BreakerOpen {
		t.Fatalf("state=%v after a panicking probe, want open (slot returned)", got)
	}

	fault.Reset()
	resp, data = postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: workload.Ring(4).String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after the fault cleared: status=%d body=%s, want 200", resp.StatusCode, data)
	}
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("state=%v after a successful re-probe, want closed", got)
	}
}

// TestGatewayBatchPanicAnswersInternal: a panic in a batch shard's
// goroutine, which the edge's recovery cannot see, is contained there.
// The batch answers 200, each item of the panicking shards answers
// internal in its own slot, and each shard's panic is counted once.
func TestGatewayBatchPanicAnswersInternal(t *testing.T) {
	defer fault.Reset()
	f := newFleet(t, 3, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{})
	progs := make([]service.BatchProgram, 6)
	owners := map[int]bool{}
	for i := range progs {
		src := workload.Ring(i + 2).String()
		progs[i] = service.BatchProgram{ID: string(rune('a' + i)), Source: src}
		owners[g.ring.Candidates(memo.SourceDigest(src))[0]] = true
	}

	fault.Set("gateway.forward", fault.Mode{Kind: fault.KindPanic})
	resp, data := postJSON(t, gts.URL+"/v1/analyze/batch", service.BatchRequest{Programs: progs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%s, want 200", resp.StatusCode, data)
	}
	var br service.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(progs) {
		t.Fatalf("%d results for %d programs", len(br.Results), len(progs))
	}
	for i, r := range br.Results {
		if r.ID != progs[i].ID || r.ErrorCode != service.CodeInternal {
			t.Fatalf("item %d: id=%q code=%q error=%q, want %q internal", i, r.ID, r.ErrorCode, r.Error, progs[i].ID)
		}
	}
	if got, want := g.Metrics().Panics.Load(), uint64(len(owners)); got != want {
		t.Fatalf("panics=%d, want one per shard (%d)", got, want)
	}
	// Each panicking chunk's span is ended, with the panic as its error.
	lookup := fetchTrace(t, gts.URL, resp.Header.Get("X-Trace-Id"))
	chunks := 0
	for _, c := range lookup.Records[0].Root.Children {
		if c.Name == "batch-chunk" {
			chunks++
			if !strings.HasPrefix(c.Attrs["error"], "panic: ") {
				t.Fatalf("batch-chunk span attrs %v, want a panic error attr", c.Attrs)
			}
		}
	}
	if chunks != len(owners) {
		t.Fatalf("%d batch-chunk spans, want one per shard (%d)", chunks, len(owners))
	}

	fault.Reset()
	resp, data = postJSON(t, gts.URL+"/v1/analyze/batch", service.BatchRequest{Programs: progs})
	var after service.BatchResponse
	if err := json.Unmarshal(data, &after); resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("after the fault cleared: status=%d body=%s", resp.StatusCode, data)
	}
	for i, r := range after.Results {
		if r.ErrorCode != 0 {
			t.Fatalf("item %d after the fault cleared: %q %s", i, r.ErrorCode, r.Error)
		}
	}
}

// TestGatewayHedgedPanicAnswersInternal: the hedge's sender goroutine
// panics while the primary is still waiting on its replica. The gateway
// cancels and drains the primary, then answers 500 internal as the
// unhedged path does, and counts the panic once.
func TestGatewayHedgedPanicAnswersInternal(t *testing.T) {
	defer fault.Reset()
	// Both replicas hold every analyze until the gateway gives up on it.
	// The server notices a closed connection only once the body is read.
	abandoned := make(chan struct{}, 2)
	hold := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
		abandoned <- struct{}{}
	})
	var urls []string
	for range 2 {
		ts := httptest.NewServer(hold)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	g, gts := newTestGateway(t, urls, Config{HedgePercentile: 95})

	// A primary that panics at once answers before any hedge is sent.
	fault.Set("gateway.forward", fault.Mode{Kind: fault.KindPanic})
	resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: workload.Ring(3).String()})
	wantInternal(t, resp, data)
	if got := g.Metrics().Hedges.Load(); got != 0 {
		t.Fatalf("hedges=%d, want 0", got)
	}

	// The primary's send is the point's first hit and goes through; the
	// hedge's, the second, panics.
	fault.Set("gateway.forward", fault.Mode{Kind: fault.KindPanic, Every: 2})
	resp, data = postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: workload.Ring(3).String()})
	wantInternal(t, resp, data)
	if got := g.Metrics().Hedges.Load(); got != 1 {
		t.Fatalf("hedges=%d, want 1", got)
	}
	if got := g.Metrics().Panics.Load(); got != 2 {
		t.Fatalf("panics=%d, want one per request (2)", got)
	}
	select {
	case <-abandoned:
	case <-time.After(5 * time.Second):
		t.Fatal("the primary's upstream request was never cancelled")
	}
}
