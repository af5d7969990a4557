package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/memo"
	"repro/internal/service"
	"repro/internal/workload"
)

// analyzeBody is the part of a single analyze response the report cache
// tests compare.
type analyzeBody struct {
	Report json.RawMessage `json:"report"`
	Cached bool            `json:"cached"`
}

// askGateway posts req through the gateway and decodes a 200 answer.
func askGateway(t *testing.T, url string, req service.AnalyzeRequest) analyzeBody {
	t.Helper()
	resp, data := postJSON(t, url+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: HTTP %d %s", resp.StatusCode, data)
	}
	var out analyzeBody
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGatewayReportCacheAnswersThirdRepeat: the first identical single
// misses the replica's cache, the second hits it and fills the gateway's
// report cache, and the third is answered by the gateway alone, with the
// same report bytes and "cached":true.
func TestGatewayReportCacheAnswersThirdRepeat(t *testing.T) {
	f := newFleet(t, 1, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{})
	g.CheckNow(context.Background())
	req := service.AnalyzeRequest{Source: workload.Ring(5).String()}
	var got [3]analyzeBody
	for i := range got {
		got[i] = askGateway(t, gts.URL, req)
	}
	if calls := f.wraps[0].analyzeCalls(); calls != 2 {
		t.Fatalf("replica saw %d analyze calls, want 2", calls)
	}
	if got[0].Cached || !got[1].Cached || !got[2].Cached {
		t.Fatalf("cached flags %v %v %v, want false true true", got[0].Cached, got[1].Cached, got[2].Cached)
	}
	for i := 1; i < 3; i++ {
		if !bytes.Equal(got[i].Report, got[0].Report) {
			t.Fatalf("answer %d: report bytes differ\n got %s\nwant %s", i+1, got[i].Report, got[0].Report)
		}
	}
	_, text := getBody(t, gts.URL+"/metrics")
	m := parsePromText([]byte(text))
	hits, misses := m.value(famReportHits.Name, nil), m.value(famReportMisses.Name, nil)
	stale, entries := m.value(famReportStale.Name, nil), m.value(famReportEntries.Name, nil)
	if hits != 1 || misses != 2 || stale != 0 || entries != 1 || m.value(famReportBytes.Name, nil) <= float64(len(got[0].Report)) {
		t.Fatalf("report cache metrics: %v hits, %v misses, %v stale, %v entries; want 1, 2, 0, 1\n%s", hits, misses, stale, entries, text)
	}

	// The gateway-answered request's trace says so and reached no replica.
	resp, _ := postJSON(t, gts.URL+"/v1/analyze", req)
	id := resp.Header.Get("X-Trace-Id")
	lookup := fetchTrace(t, gts.URL, id)
	root := lookup.Records[0].Root
	if root.Attrs["report_cache"] != "hit" || findSpan(root, "route") != nil {
		t.Fatalf("gateway hit trace: %+v", root)
	}
	if code, _ := getBody(t, f.urls[0]+"/debug/traces/"+id); code != http.StatusNotFound {
		t.Fatalf("replica retained the gateway hit's trace: status %d", code)
	}
}

// TestGatewayReportCacheStoresOnlyReplicaHits: only a 200 that the
// replica marked as a hit in its own report cache is stored. A replica
// miss, an error status (even one carrying the hit header), a degraded
// report and a replica that never sends the header all leave the cache
// empty, however often the body repeats.
func TestGatewayReportCacheStoresOnlyReplicaHits(t *testing.T) {
	t.Run("replica miss", func(t *testing.T) {
		f := newFleet(t, 1, service.Config{})
		g, gts := newTestGateway(t, f.urls, Config{})
		req := service.AnalyzeRequest{Source: workload.Ring(4).String()}
		askGateway(t, gts.URL, req)
		if n := g.reports.Len(); n != 0 {
			t.Fatalf("%d entries after a replica miss, want 0", n)
		}
		askGateway(t, gts.URL, req)
		if n := g.reports.Len(); n != 1 {
			t.Fatalf("%d entries after a replica hit, want 1", n)
		}
	})
	t.Run("degraded report", func(t *testing.T) {
		f := newFleet(t, 1, service.Config{})
		g, gts := newTestGateway(t, f.urls, Config{})
		req := service.AnalyzeRequest{
			Source:  workload.ForkFan(5, 4).String(),
			Options: &service.WireOptions{Algorithm: "refined", Exact: true, MaxStates: 64, Degrade: true},
		}
		for i := 0; i < 3; i++ {
			out := askGateway(t, gts.URL, req)
			if out.Cached || !bytes.Contains(out.Report, []byte(`"degraded":true`)) {
				t.Fatalf("request %d: cached=%v report %s, want a fresh degraded report", i+1, out.Cached, out.Report)
			}
		}
		if calls, n := f.wraps[0].analyzeCalls(), g.reports.Len(); calls != 3 || n != 0 {
			t.Fatalf("replica calls=%d entries=%d, want 3 and 0", calls, n)
		}
	})
	for _, c := range []struct {
		name   string
		status int
		body   string
		hit    bool
	}{
		{"no hit header", http.StatusOK, `{"report":{"x":1},"cached":true,"elapsedMs":0.1}`, false},
		{"parse error with hit header", http.StatusUnprocessableEntity, `{"error":{"code":"parse_error","message":"x"}}`, true},
		{"shed with hit header", http.StatusTooManyRequests, `{"error":{"code":"shed","message":"x"}}`, true},
		{"internal with hit header", http.StatusInternalServerError, `{"error":{"code":"internal","message":"x"}}`, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var mu sync.Mutex
			calls := 0
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				calls++
				mu.Unlock()
				if c.hit {
					w.Header().Set(service.CacheHeader, service.CacheHit)
				}
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(c.status)
				io.WriteString(w, c.body)
			}))
			defer stub.Close()
			g, gts := newTestGateway(t, []string{stub.URL}, Config{MaxRetries: -1})
			for i := 0; i < 3; i++ {
				resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: "task a is begin end;"})
				if resp.StatusCode != c.status || string(data) != c.body {
					t.Fatalf("request %d: HTTP %d %s, want the replica's %d %s relayed", i+1, resp.StatusCode, data, c.status, c.body)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if calls != 3 || g.reports.Len() != 0 || g.Metrics().ReportHits.Load() != 0 {
				t.Fatalf("replica calls=%d entries=%d hits=%d, want 3 0 0", calls, g.reports.Len(), g.Metrics().ReportHits.Load())
			}
		})
	}
}

// TestGatewayReportCacheRetiresReplacedReplica: an entry is served only
// while the replica process that produced it still answers at its URL.
// Entries stored before the first probe turn stale once a probe reports
// an instance id; a replica replaced behind the same URL reports a new
// one, and after the next probe its predecessor's entries are forwarded
// and stored again only after the new replica's own hit.
func TestGatewayReportCacheRetiresReplacedReplica(t *testing.T) {
	f := newFleet(t, 1, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{})
	req := service.AnalyzeRequest{Source: workload.Ring(6).String()}
	var want json.RawMessage
	// ask sends req and checks whether a replica was asked and whether the
	// gateway's cache holds an entry for the body.
	ask := func(step string, forwarded, cached bool) {
		t.Helper()
		before := f.wraps[0].analyzeCalls()
		out := askGateway(t, gts.URL, req)
		if want == nil {
			want = out.Report
		}
		if !bytes.Equal(out.Report, want) {
			t.Fatalf("%s: report bytes differ\n got %s\nwant %s", step, out.Report, want)
		}
		if got := f.wraps[0].analyzeCalls() > before; got != forwarded {
			t.Fatalf("%s: forwarded=%v, want %v", step, got, forwarded)
		}
		if got := g.reports.Len() == 1; got != cached {
			t.Fatalf("%s: stored=%v, want %v", step, got, cached)
		}
	}
	stale := func(step string, want uint64) {
		t.Helper()
		if got := g.Metrics().ReportStale.Load(); got != want {
			t.Fatalf("%s: %d stale refusals, want %d", step, got, want)
		}
	}

	ask("replica miss", true, false)
	ask("replica hit, stored before any probe", true, true)
	ask("gateway hit", false, true)
	g.CheckNow(context.Background())
	ask("first probe reported an id: stale, forwarded, stored again", true, true)
	stale("after the first probe", 1)
	ask("gateway hit under the probed id", false, true)

	replacement := service.New(service.Config{})
	f.wraps[0].replace(replacement.Handler())
	ask("replaced, not yet probed: still served", false, true)
	g.CheckNow(context.Background())
	_, readyz := getBody(t, f.urls[0]+"/readyz")
	var ready service.Readiness
	if err := json.Unmarshal([]byte(readyz), &ready); err != nil {
		t.Fatal(err)
	}
	if got := g.backends[0].instanceID(); ready.Instance == "" || got != ready.Instance {
		t.Fatalf("probed instance %q, want the replacement's %q", got, ready.Instance)
	}
	ask("stale after the probe: the new replica misses", true, true)
	if hits := replacement.Metrics().CacheHits.Load(); hits != 0 {
		t.Fatalf("new replica hits=%d, want 0", hits)
	}
	ask("stale again: the new replica hits and the entry is stored again", true, true)
	stale("after the replacement", 3)
	ask("gateway hit under the new id", false, true)
	stale("after the last hit", 3)
}

// TestGatewayReportCacheRefusesDownReplica: while the replica that
// produced an entry is down, the entry is not served; the request goes to
// the ring successor.
func TestGatewayReportCacheRefusesDownReplica(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{})
	g.CheckNow(context.Background())
	src := ownedBy(t, g, 0)
	req := service.AnalyzeRequest{Source: src}
	for i := 0; i < 3; i++ {
		askGateway(t, gts.URL, req)
	}
	if calls := f.wraps[0].analyzeCalls(); calls != 2 || g.Metrics().ReportHits.Load() != 1 {
		t.Fatalf("owner calls=%d gateway hits=%d, want 2 and 1", calls, g.Metrics().ReportHits.Load())
	}
	f.wraps[0].setNotReady(true)
	g.CheckNow(context.Background())
	askGateway(t, gts.URL, req)
	if calls := f.wraps[1].analyzeCalls(); calls != 1 || g.Metrics().ReportStale.Load() != 1 {
		t.Fatalf("successor calls=%d stale=%d, want 1 and 1", calls, g.Metrics().ReportStale.Load())
	}
}

// TestGatewayReportCacheConcurrent runs hits, stale refusals, leader
// stores and direct stores on one key at once, with probes rewriting the
// backends' instance ids; every answer must carry the same report bytes.
// Its value is under -race.
func TestGatewayReportCacheConcurrent(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	g, _ := newTestGateway(t, f.urls, Config{})
	g.CheckNow(context.Background())
	src := workload.Ring(7).String()
	body, err := json.Marshal(service.AnalyzeRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	post := func() (int, analyzeBody, []byte) {
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		var out analyzeBody
		json.Unmarshal(rec.Body.Bytes(), &out)
		return rec.Code, out, rec.Body.Bytes()
	}
	_, first, _ := post()
	_, _, hitBody := post() // the owner's own hit: stored
	want := first.Report
	key := sha256.Sum256(body)
	owner := g.backends[g.Ring().Candidates(memo.SourceDigest(src))[0]]

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				code, out, raw := post()
				if code != http.StatusOK || !bytes.Equal(out.Report, want) {
					t.Errorf("concurrent answer: HTTP %d %s", code, raw)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			// Alternate a fresh store with one under an id no replica has,
			// which the next lookups refuse and forward.
			instance := owner.instanceID()
			if i%2 == 1 {
				instance = fmt.Sprint("gone-", i)
			}
			g.storeReport(key, &upstream{status: http.StatusOK, cacheHit: true, body: hitBody, backend: owner, instance: instance})
			if i%10 == 0 {
				g.CheckNow(context.Background())
			}
		}
	}()
	wg.Wait()
	if g.reports.Len() != 1 {
		t.Fatalf("%d entries for one body, want 1", g.reports.Len())
	}
}
