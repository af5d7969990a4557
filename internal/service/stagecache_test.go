package service

import (
	"fmt"
	"net/http"
	"testing"

	siwa "repro"
	"repro/internal/workload"
)

// spansWithAttr walks a wire span tree and collects the names of spans
// whose attribute key carries the given value.
func spansWithAttr(sp *siwa.JSONSpan, key, val string) []string {
	if sp == nil {
		return nil
	}
	var names []string
	if sp.Attrs[key] == val {
		names = append(names, sp.Name)
	}
	for _, c := range sp.Children {
		names = append(names, spansWithAttr(c, key, val)...)
	}
	return names
}

func contains(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// TestStageCacheWarmTraceSpans drives the same source through two
// different algorithms and checks the trace annotations: the first run is
// a full stage-cache miss; the second shares every artifact except its own
// detector sweep, and its trace says so span by span.
func TestStageCacheWarmTraceSpans(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := workload.Ring(4).String()

	code, cold, _ := analyze(t, ts.URL, AnalyzeRequest{Source: src, Trace: true})
	if code != http.StatusOK {
		t.Fatalf("cold status=%d", code)
	}
	if cold.Trace == nil {
		t.Fatal("cold run returned no trace")
	}
	if got := cold.Trace.Attrs["stage_cache"]; got != "miss" {
		t.Fatalf("cold stage_cache=%q, want miss", got)
	}
	digest := cold.Trace.Attrs["source_digest"]
	if digest == "" {
		t.Fatal("cold trace missing source_digest")
	}

	// A different algorithm misses the result cache (the verdict differs)
	// but lands on the same source digest, so parse+unroll and the CLG are
	// served from the stage cache and only the new sweep runs.
	code, warm, _ := analyze(t, ts.URL, AnalyzeRequest{
		Source: src, Trace: true,
		Options: &WireOptions{Algorithm: "refined"},
	})
	if code != http.StatusOK {
		t.Fatalf("warm status=%d", code)
	}
	if warm.Cached {
		t.Fatal("algorithm change unexpectedly hit the result cache")
	}
	if warm.Trace == nil {
		t.Fatal("warm run returned no trace")
	}
	if got := warm.Trace.Attrs["stage_cache"]; got != "partial" {
		t.Fatalf("warm stage_cache=%q, want partial", got)
	}
	if got := warm.Trace.Attrs["source_digest"]; got != digest {
		t.Fatalf("digest changed across runs: %q vs %q", got, digest)
	}
	hits := spansWithAttr(warm.Trace, "stage_cache", "hit")
	for _, stage := range []string{"parse+unroll", "clg", "stall"} {
		if !contains(hits, stage) {
			t.Errorf("stage %q not served from cache (hits: %v)", stage, hits)
		}
	}
	misses := spansWithAttr(warm.Trace, "stage_cache", "miss")
	if !contains(misses, "detect:refined") {
		t.Errorf("detect:refined should have been built fresh (misses: %v)", misses)
	}

	st := s.StageCacheStats()
	if st.Hits == 0 || st.Builds == 0 {
		t.Fatalf("stats show no activity: %+v", st)
	}
	if st.Evictions != 0 {
		t.Fatalf("default budget evicted during a two-request test: %+v", st)
	}
}

// TestStageCacheDisabled pins the opt-out: with a negative MiB budget the
// server analyzes without a stage cache, building every stage group, and
// the stats stay zero.
func TestStageCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{StageCacheMB: -1})
	code, ar, _ := analyze(t, ts.URL, AnalyzeRequest{
		Source: workload.Ring(3).String(), Trace: true,
	})
	if code != http.StatusOK {
		t.Fatalf("status=%d", code)
	}
	if ar.Trace == nil {
		t.Fatal("no trace echoed")
	}
	if _, ok := ar.Trace.Attrs["stage_cache"]; ok {
		t.Fatal("disabled stage cache still annotated the trace")
	}
	if st := s.StageCacheStats(); st != (siwa.StageCacheStats{}) {
		t.Fatalf("disabled stage cache reported activity: %+v", st)
	}
}

// TestOneBudgetCoversReports pins the one cache per replica: rendered
// reports live in the stage cache under its byte budget, so once enough
// distinct programs have overflowed that budget, the first program's
// report is gone with its artifacts and a repeat analyzes afresh, while
// the resident bytes never exceed the budget.
func TestOneBudgetCoversReports(t *testing.T) {
	const budget = 1 << 20
	s, ts := newTestServer(t, Config{StageCacheMB: 1})
	// A trailing comment changes the digest, not the analysis.
	src := func(i int) string { return fmt.Sprintf("%s-- program %d\n", workload.Pipeline(8, 4), i) }
	req := func(i int) AnalyzeRequest {
		return AnalyzeRequest{Source: src(i), Options: &WireOptions{Algorithm: "pairs"}}
	}
	// Analyze until the budget first overflows, then as many programs
	// again, so at least a full budget of newer entries follows the first
	// program's.
	n := 0
	for s.StageCacheStats().Evictions == 0 {
		if n++; n > 4096 {
			t.Fatalf("%d programs never overflowed the budget: %+v", n, s.StageCacheStats())
		}
		if code, _, _ := analyze(t, ts.URL, req(n)); code != http.StatusOK {
			t.Fatalf("program %d: status %d", n, code)
		}
	}
	for i := n + 1; i <= 2*n; i++ {
		if code, _, _ := analyze(t, ts.URL, req(i)); code != http.StatusOK {
			t.Fatalf("program %d: status %d", i, code)
		}
	}
	if st := s.StageCacheStats(); st.Bytes > budget {
		t.Fatalf("resident bytes %d exceed the %d-byte budget", st.Bytes, budget)
	}
	code, ar, _ := analyze(t, ts.URL, req(1))
	if code != http.StatusOK || ar.Cached {
		t.Fatalf("first program after %d others: status=%d cached=%v, want a fresh analysis", 2*n-1, code, ar.Cached)
	}
	if st := s.StageCacheStats(); st.Bytes > budget {
		t.Fatalf("resident bytes %d exceed the %d-byte budget", st.Bytes, budget)
	}
	t.Logf("budget overflowed after %d programs", n)
}
