package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func newLocalListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestGatewayChaosKillMidBatch is the chaos acceptance test: one of three
// replicas dies mid-batch (every connection aborts, like a crashed
// process). The batch must still come back 200 and in input order; ONLY
// the items that were in flight to the corpse carry the taxonomy code
// "unavailable"; the transport failure takes the backend out, and
// subsequent chunks — and follow-up singles — reroute to ring successors
// without touching the dead replica.
func TestGatewayChaosKillMidBatch(t *testing.T) {
	const n, chunk = 50, 4
	f := newFleet(t, 3, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{
		BatchChunk:       chunk,
		FailureThreshold: 1, // no prober runs, so it stays out for the rest of the test
	})

	progs := make([]service.BatchProgram, n)
	ownerOf := make([]int, n)
	shard := make([]int, 3)
	for i := range progs {
		src := workload.Ring(i + 2).String()
		progs[i] = service.BatchProgram{ID: fmt.Sprintf("p%d", i), Source: src}
		ownerOf[i] = g.Ring().Candidates(memo.SourceDigest(src))[0]
		shard[ownerOf[i]]++
	}
	// Kill the replica owning the most items, after it has served one
	// sub-batch: its second chunk is "in flight to a dead replica".
	killed := 0
	for i, c := range shard {
		if c > shard[killed] {
			killed = i
		}
	}
	if shard[killed] < 2*chunk+1 {
		t.Fatalf("backend %d owns only %d of %d items; widen the workload", killed, shard[killed], n)
	}
	f.wraps[killed].mu.Lock()
	f.wraps[killed].killAfter = 1
	f.wraps[killed].mu.Unlock()

	resp, data := postJSON(t, gts.URL+"/v1/analyze/batch", service.BatchRequest{Programs: progs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status=%d body=%s (a dying replica must not fail the batch)", resp.StatusCode, data)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	var br service.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != n {
		t.Fatalf("results=%d, want %d", len(br.Results), n)
	}
	var unavailable []int
	for i, r := range br.Results {
		if r.ID != fmt.Sprintf("p%d", i) {
			t.Fatalf("result %d has id %q: order not preserved under chaos", i, r.ID)
		}
		switch r.ErrorCode {
		case 0:
			if len(r.Report) == 0 {
				t.Fatalf("item %d: no error but no report", i)
			}
		case service.CodeUnavailable:
			unavailable = append(unavailable, i)
		default:
			t.Fatalf("item %d: code=%q, want %q or success", i, r.ErrorCode, service.CodeUnavailable)
		}
	}
	// Exactly one full chunk was in flight when the kill fired; everything
	// sharded to the corpse afterwards rerouted around the backend it took
	// out.
	if len(unavailable) != chunk {
		t.Fatalf("unavailable items=%v (%d), want exactly the in-flight chunk of %d",
			unavailable, len(unavailable), chunk)
	}
	for _, i := range unavailable {
		if ownerOf[i] != killed {
			t.Fatalf("item %d marked unavailable but belongs to live backend %d", i, ownerOf[i])
		}
	}
	if g.BackendUp(killed) {
		t.Fatal("killed backend still takes traffic after a transport failure")
	}
	if got := g.Metrics().ItemsUnavailable.Load(); got != uint64(chunk) {
		t.Fatalf("items_unavailable metric=%d, want %d", got, chunk)
	}
	if ok := g.Metrics().ItemsOK.Load(); ok != uint64(n-chunk) {
		t.Fatalf("items_ok metric=%d, want %d", ok, n-chunk)
	}

	// Follow-up single for a digest the corpse owns: rerouted, no new
	// traffic reaches the dead replica.
	deadCalls := f.wraps[killed].analyzeCalls()
	src := ownedBy(t, g, killed)
	resp2, data2 := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: src})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up analyze: status=%d body=%s", resp2.StatusCode, data2)
	}
	if got := f.wraps[killed].analyzeCalls(); got != deadCalls {
		t.Fatalf("dead replica received %d new calls", got-deadCalls)
	}

	// The whole ordeal is one trace: the retained record shows the chunk
	// fan-out, the kill (a chunk span with an error attr), and the
	// re-scatter of the items that rerouted to ring successors.
	lookup := fetchTrace(t, gts.URL, traceID)
	root := lookup.Records[0].Root
	var chunkSpans, errChunks, rescatters int
	root.Walk(func(sp *obs.SpanJSON) {
		switch sp.Name {
		case "batch-chunk":
			chunkSpans++
			if sp.Attrs["error"] != "" {
				errChunks++
			}
		case "re-scatter":
			rescatters++
		}
	})
	if chunkSpans == 0 || errChunks == 0 {
		t.Fatalf("trace shows %d chunk spans, %d failed: want the dead chunk recorded (%v)",
			chunkSpans, errChunks, spanNames(lookup))
	}
	if rescatters == 0 {
		t.Fatalf("no re-scatter span in the chaos trace: %v", spanNames(lookup))
	}

	// The active probe also notices the corpse.
	g.CheckNow(context.Background())
	if g.BackendUp(killed) {
		t.Fatal("killed replica still marked up after probe")
	}
	if g.BackendUp((killed+1)%3) != true || g.BackendUp((killed+2)%3) != true {
		t.Fatal("survivors wrongly marked down")
	}
}

// TestGatewayForwardFaultHook arms the gateway.forward injection point:
// an injected transport error must surface as "unavailable", count toward
// the backend's failure threshold, and clear cleanly once the fault is
// removed.
func TestGatewayForwardFaultHook(t *testing.T) {
	defer fault.Reset()
	f := newFleet(t, 1, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{FailureThreshold: 3})

	fault.Set("gateway.forward", fault.Mode{Kind: fault.KindError})
	resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: workload.Ring(3).String()})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	if eb := decodeError(t, data); eb.Code != service.CodeUnavailable {
		t.Fatalf("code=%q, want %q", eb.Code, service.CodeUnavailable)
	}
	if fault.Hits("gateway.forward") == 0 {
		t.Fatal("fault point never fired")
	}
	if got := g.Metrics().backend(f.urls[0]).Failures.Load(); got != 1 {
		t.Fatalf("backend failures=%d, want 1", got)
	}
	if !g.BackendUp(0) {
		t.Fatal("one failure under threshold 3 took the backend out")
	}

	fault.Reset()
	resp2, data2 := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: workload.Ring(3).String()})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-fault analyze: status=%d body=%s", resp2.StatusCode, data2)
	}
}

// TestGatewayShedReroutesAcrossFleet makes a digest's owner shed: the
// retry must land on the next ring candidate and succeed, with the shed
// never surfacing to the client.
func TestGatewayShedReroutesAcrossFleet(t *testing.T) {
	f := newFleet(t, 3, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{MaxRetries: 2})
	const owner = 0
	src := ownedBy(t, g, owner)
	f.wraps[owner].mu.Lock()
	f.wraps[owner].shed = 1000 // sheds for the whole test
	f.wraps[owner].mu.Unlock()

	resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%s (retry should have rerouted)", resp.StatusCode, data)
	}
	if got := g.Metrics().Retries.Load(); got == 0 {
		t.Fatal("no retry recorded")
	}
	// Shedding is an HTTP answer, not a transport failure: the replica
	// must stay "up", before and after a probe.
	if !g.BackendUp(owner) {
		t.Fatal("shedding took the backend out")
	}
	g.CheckNow(context.Background())
	if !g.BackendUp(owner) {
		t.Fatal("shedding replica marked down by probe")
	}
}
