package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/memo"
	"repro/internal/service"
	"repro/internal/workload"
)

// wrapped sits between the gateway and a real replica handler so tests
// can break the replica in controlled ways: kill it mid-run (abort every
// connection, like a crashed process), shed the next N analyze requests
// with 429, delay analyze requests, fail readiness while staying live, or
// hand analyze requests to a test's own intercept.
type wrapped struct {
	next http.Handler

	mu        sync.Mutex
	calls     int  // analyze-path requests seen
	killAfter int  // >0: abort everything once calls exceeds this
	killed    bool // once true, every request aborts (process is "dead")
	shed      int  // respond 429 to this many analyze requests
	delay     time.Duration

	notReady bool   // force /readyz to 503 (drain simulation)
	lastID   string // last X-Request-Id seen on an analyze path

	// intercept, when set, sees each counted analyze request first,
	// outside mu; returning true means it has answered the request.
	intercept func(w http.ResponseWriter, r *http.Request) bool
}

func (wr *wrapped) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	analyzePath := strings.HasPrefix(r.URL.Path, "/v1/analyze")
	wr.mu.Lock()
	if wr.killed {
		wr.mu.Unlock()
		panic(http.ErrAbortHandler)
	}
	if analyzePath {
		wr.calls++
		if wr.killAfter > 0 && wr.calls > wr.killAfter {
			wr.killed = true
			wr.mu.Unlock()
			panic(http.ErrAbortHandler)
		}
		if id := r.Header.Get("X-Request-Id"); id != "" {
			wr.lastID = id
		}
		if wr.shed > 0 {
			wr.shed--
			wr.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"shed","message":"synthetic shed"}}`)
			return
		}
	}
	if wr.notReady && r.URL.Path == "/readyz" {
		wr.mu.Unlock()
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	delay, next, intercept := wr.delay, wr.next, wr.intercept
	wr.mu.Unlock()
	if analyzePath && intercept != nil && intercept(w, r) {
		return
	}
	if analyzePath && delay > 0 {
		time.Sleep(delay)
	}
	next.ServeHTTP(w, r)
}

// replace puts a different replica behind the same URL, as a restart
// would.
func (wr *wrapped) replace(next http.Handler) {
	wr.mu.Lock()
	wr.next = next
	wr.mu.Unlock()
}

func (wr *wrapped) analyzeCalls() int {
	wr.mu.Lock()
	defer wr.mu.Unlock()
	return wr.calls
}

func (wr *wrapped) setNotReady(v bool) {
	wr.mu.Lock()
	wr.notReady = v
	wr.mu.Unlock()
}

func (wr *wrapped) lastRequestID() string {
	wr.mu.Lock()
	defer wr.mu.Unlock()
	return wr.lastID
}

// fleet is n real service.Server replicas behind wrapped handlers.
type fleet struct {
	servers []*service.Server
	wraps   []*wrapped
	urls    []string
}

func newFleet(t *testing.T, n int, cfg service.Config) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		s := service.New(cfg)
		wr := &wrapped{next: s.Handler()}
		ts := httptest.NewServer(wr)
		t.Cleanup(ts.Close)
		f.servers = append(f.servers, s)
		f.wraps = append(f.wraps, wr)
		f.urls = append(f.urls, ts.URL)
	}
	return f
}

// newTestGateway builds a Gateway over urls and mounts it under httptest.
// No background health checker runs: tests drive probes via CheckNow for
// deterministic transitions.
func newTestGateway(t *testing.T, urls []string, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	cfg.Backends = urls
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func decodeError(t *testing.T, data []byte) service.ErrorBody {
	t.Helper()
	var er service.ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("bad error body %v\n%s", err, data)
	}
	return er.Error
}

// promCounter extracts the value of an unlabeled counter from a
// Prometheus text exposition.
func promCounter(t *testing.T, text, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// TestGatewayDigestAffinityCacheHitRate is the headline acceptance test:
// the same shuffled request sequence is played through a 3-replica
// cluster (via the gateway) and through one standalone replica, and the
// fleet must answer from cache exactly as often as the single node.
// Digest affinity means a fleet caches like one big node: M distinct
// programs cost M misses total, no matter which replica's cache holds
// each one. The fleet's cache answers come from two places: each
// replica's own report cache (scraped from its /metrics) answers a
// program's first repeat, and the gateway's report cache, filled by that
// replica hit, answers every later one.
func TestGatewayDigestAffinityCacheHitRate(t *testing.T) {
	const M, repeats = 12, 4
	sources := make([]string, M)
	for i := range sources {
		sources[i] = workload.Ring(i + 2).String()
	}
	seq := make([]int, 0, M*repeats)
	for r := 0; r < repeats; r++ {
		for i := 0; i < M; i++ {
			seq = append(seq, i)
		}
	}
	rand.New(rand.NewSource(42)).Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })

	f := newFleet(t, 3, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{})
	for _, si := range seq {
		resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: sources[si]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gateway analyze: status=%d body=%s", resp.StatusCode, data)
		}
	}

	single := service.New(service.Config{})
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	for _, si := range seq {
		resp, _ := postJSON(t, sts.URL+"/v1/analyze", service.AnalyzeRequest{Source: sources[si]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single-node analyze: status=%d", resp.StatusCode)
		}
	}

	var fleetHits, fleetMisses uint64
	for i, url := range f.urls {
		code, text := getBody(t, url+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("replica %d /metrics: status=%d", i, code)
		}
		fleetHits += promCounter(t, text, "siwa_cache_hits_total")
		fleetMisses += promCounter(t, text, "siwa_cache_misses_total")
	}
	_, singleText := getBody(t, sts.URL+"/metrics")
	singleHits := promCounter(t, singleText, "siwa_cache_hits_total")
	singleMisses := promCounter(t, singleText, "siwa_cache_misses_total")

	if singleMisses != M || singleHits != M*(repeats-1) {
		t.Fatalf("single-node control off: hits=%d misses=%d", singleHits, singleMisses)
	}
	gatewayHits := g.Metrics().ReportHits.Load()
	if fleetMisses != singleMisses || fleetHits+gatewayHits != singleHits {
		t.Fatalf("fleet cache rate differs from single node: replica hits=%d misses=%d, gateway hits=%d; single hits=%d misses=%d",
			fleetHits, fleetMisses, gatewayHits, singleHits, singleMisses)
	}
	if fleetHits != M || gatewayHits != M*(repeats-2) {
		t.Fatalf("replica hits=%d gateway hits=%d, want %d and %d: each program's first repeat is a replica hit, later ones gateway hits",
			fleetHits, gatewayHits, M, M*(repeats-2))
	}
}

// TestGatewayTaxonomyRoundTrip pins the relay contract: every error code
// in the service taxonomy (and a success body) must pass through the
// gateway byte-for-byte — same status, same body, no rewrapping.
func TestGatewayTaxonomyRoundTrip(t *testing.T) {
	var mu sync.Mutex
	status, payload, retryAfter := http.StatusOK, "", ""
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(status)
		io.WriteString(w, payload)
	}))
	defer stub.Close()

	// MaxRetries -1 disables retries so even 429/503 relay the first
	// upstream answer untouched.
	_, gts := newTestGateway(t, []string{stub.URL}, Config{MaxRetries: -1})

	errBody := func(code service.Code) string {
		return fmt.Sprintf(`{"error":{"code":%q,"message":"synthetic %s"}}`, code, code)
	}
	cases := []struct {
		name       string
		status     int
		body       string
		retryAfter string
	}{
		{"ok", http.StatusOK, `{"report":{"x":1},"cached":true,"elapsedMs":0.1}`, ""},
		{service.CodeInvalidRequest.String(), http.StatusBadRequest, errBody(service.CodeInvalidRequest), ""},
		{service.CodeParseError.String(), http.StatusUnprocessableEntity, errBody(service.CodeParseError), ""},
		{service.CodeTooLarge.String(), http.StatusRequestEntityTooLarge, errBody(service.CodeTooLarge), ""},
		{service.CodeTimeout.String(), http.StatusServiceUnavailable, errBody(service.CodeTimeout), "2"},
		{service.CodeShed.String(), http.StatusTooManyRequests, errBody(service.CodeShed), "5"},
		{service.CodeResourceLimit.String(), http.StatusUnprocessableEntity, errBody(service.CodeResourceLimit), ""},
		{service.CodeInternal.String(), http.StatusInternalServerError, errBody(service.CodeInternal), ""},
		{service.CodeUnavailable.String(), http.StatusServiceUnavailable, errBody(service.CodeUnavailable), "1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mu.Lock()
			status, payload, retryAfter = tc.status, tc.body, tc.retryAfter
			mu.Unlock()
			resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: "task main { }"})
			if resp.StatusCode != tc.status {
				t.Fatalf("status=%d, want %d (body %s)", resp.StatusCode, tc.status, data)
			}
			if string(data) != tc.body {
				t.Fatalf("body rewritten:\n got %s\nwant %s", data, tc.body)
			}
			if got := resp.Header.Get("Retry-After"); got != tc.retryAfter {
				t.Fatalf("Retry-After=%q, want %q", got, tc.retryAfter)
			}
		})
	}
}

// TestGatewayUnknownReplicaCode: a replica body whose code is outside the
// taxonomy (possible only under version skew) does not decode, so the
// gateway treats it as any malformed replica body and the affected batch
// items get internal. A single is still relayed byte for byte.
func TestGatewayUnknownReplicaCode(t *testing.T) {
	const single = `{"error":{"code":"bogus","message":"from a newer replica"}}`
	var mu sync.Mutex
	batchStatus, batchBody := http.StatusOK, ""
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/v1/analyze":
			w.WriteHeader(http.StatusUnprocessableEntity)
			io.WriteString(w, single)
		case "/v1/analyze/batch":
			w.WriteHeader(batchStatus)
			io.WriteString(w, batchBody)
		}
	}))
	defer stub.Close()
	_, gts := newTestGateway(t, []string{stub.URL}, Config{MaxRetries: -1})

	resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: "task a is begin end;"})
	if resp.StatusCode != http.StatusUnprocessableEntity || string(data) != single {
		t.Fatalf("single: status %d body %s, want 422 %s", resp.StatusCode, data, single)
	}
	for _, c := range []struct {
		status int
		body   string
	}{
		{http.StatusOK, `{"results":[{"cached":false,"error":"x","errorCode":"bogus"}],"elapsedMs":0.1}`},
		{http.StatusUnprocessableEntity, single},
	} {
		mu.Lock()
		batchStatus, batchBody = c.status, c.body
		mu.Unlock()
		resp, data := postJSON(t, gts.URL+"/v1/analyze/batch", service.BatchRequest{
			Programs: []service.BatchProgram{{ID: "p", Source: "task a is begin end;"}},
		})
		var br service.BatchResponse
		if err := json.Unmarshal(data, &br); err != nil || resp.StatusCode != http.StatusOK || len(br.Results) != 1 {
			t.Fatalf("batch over %d: status %d body %s", c.status, resp.StatusCode, data)
		}
		if r := br.Results[0]; r.ID != "p" || r.ErrorCode != service.CodeInternal {
			t.Errorf("batch over %d: item %+v, want code internal", c.status, r)
		}
	}
}

// TestGatewaySingleFlight holds a replica's analyze path slow and fires
// identical concurrent requests: exactly one upstream analysis must run,
// the rest share the leader's response.
func TestGatewaySingleFlight(t *testing.T) {
	f := newFleet(t, 1, service.Config{})
	f.wraps[0].delay = 500 * time.Millisecond
	g, gts := newTestGateway(t, f.urls, Config{})

	const concurrent = 8
	req := service.AnalyzeRequest{Source: workload.Ring(4).String()}
	body, _ := json.Marshal(req)
	var wg sync.WaitGroup
	responses := make([][]byte, concurrent)
	statuses := make([]int, concurrent)
	// The leader needs to be registered in the flight group before the
	// followers arrive; its 500ms upstream delay gives them ample room.
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i > 0 {
				time.Sleep(50 * time.Millisecond)
			}
			resp, err := http.Post(gts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			responses[i] = data
		}(i)
	}
	wg.Wait()
	for i := 0; i < concurrent; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status=%d body=%s", i, statuses[i], responses[i])
		}
		if !bytes.Equal(responses[i], responses[0]) {
			t.Fatalf("request %d got a different body than the leader", i)
		}
	}
	if got := f.wraps[0].analyzeCalls(); got != 1 {
		t.Fatalf("replica saw %d analyze calls, want 1 (single-flight)", got)
	}
	if got := f.servers[0].Metrics().Analyses.Load(); got != 1 {
		t.Fatalf("replica executed %d analyses, want 1", got)
	}
	if got := g.Metrics().Dedup.Load(); got != concurrent-1 {
		t.Fatalf("dedup=%d, want %d", got, concurrent-1)
	}
}

// TestGatewayRequestIDPropagation checks the correlation id end to end:
// client-supplied ids are echoed by the gateway and forwarded to the
// replica; absent or malformed ids are replaced with a gateway-minted one.
func TestGatewayRequestIDPropagation(t *testing.T) {
	f := newFleet(t, 1, service.Config{})
	_, gts := newTestGateway(t, f.urls, Config{})
	body, _ := json.Marshal(service.AnalyzeRequest{Source: workload.Ring(3).String()})

	req, _ := http.NewRequest(http.MethodPost, gts.URL+"/v1/analyze", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-42" {
		t.Fatalf("gateway echoed id %q, want trace-me-42", got)
	}
	if got := f.wraps[0].lastRequestID(); got != "trace-me-42" {
		t.Fatalf("replica received id %q, want trace-me-42", got)
	}

	resp2, _ := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: workload.Ring(3).String()})
	if got := resp2.Header.Get("X-Request-Id"); !strings.HasPrefix(got, "gw-") {
		t.Fatalf("generated id %q lacks gw- prefix", got)
	}

	req3, _ := http.NewRequest(http.MethodPost, gts.URL+"/v1/analyze", bytes.NewReader(body))
	req3.Header.Set("Content-Type", "application/json")
	req3.Header.Set("X-Request-Id", "has a space")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-Id"); !strings.HasPrefix(got, "gw-") {
		t.Fatalf("malformed inbound id kept: %q", got)
	}
}

// ownedBy finds a workload program whose digest's first ring candidate is
// backend i.
func ownedBy(t *testing.T, g *Gateway, i int) string {
	t.Helper()
	for n := 2; n < 200; n++ {
		src := workload.Ring(n).String()
		if g.Ring().Candidates(memo.SourceDigest(src))[0] == i {
			return src
		}
	}
	t.Fatalf("no sample program routes to backend %d", i)
	return ""
}

// TestGatewayReadyzDrivenRouting drains one replica (its /readyz turns
// 503 while /healthz stays 200), probes, and requires traffic for that
// replica's digests to shift to their ring successors. The gateway's own
// /readyz flips only when the whole fleet is unroutable.
func TestGatewayReadyzDrivenRouting(t *testing.T) {
	f := newFleet(t, 3, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{})
	g.CheckNow(context.Background())
	for i := range f.urls {
		if !g.BackendUp(i) {
			t.Fatalf("backend %d down after initial probe", i)
		}
	}
	if code, _ := getBody(t, gts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("gateway /readyz=%d with a healthy fleet", code)
	}

	const drained = 1
	src := ownedBy(t, g, drained)
	f.wraps[drained].setNotReady(true)
	g.CheckNow(context.Background())
	if g.BackendUp(drained) {
		t.Fatal("draining replica still marked up after probe")
	}

	before := f.wraps[drained].analyzeCalls()
	resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze during drain: status=%d body=%s", resp.StatusCode, data)
	}
	if got := f.wraps[drained].analyzeCalls(); got != before {
		t.Fatalf("draining replica received %d new analyze calls", got-before)
	}
	if code, _ := getBody(t, gts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("gateway /readyz=%d, two backends remain", code)
	}

	for i := range f.wraps {
		f.wraps[i].setNotReady(true)
	}
	g.CheckNow(context.Background())
	if code, body := getBody(t, gts.URL+"/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "no backend available") {
		t.Fatalf("gateway /readyz=%d body=%s with the whole fleet draining", code, body)
	}

	// Un-drain: the fleet recovers and the replica takes traffic again.
	for i := range f.wraps {
		f.wraps[i].setNotReady(false)
	}
	g.CheckNow(context.Background())
	if !g.BackendUp(drained) {
		t.Fatal("replica still down after recovery probe")
	}
	resp2, _ := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: src})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery analyze: status=%d", resp2.StatusCode)
	}
	if got := f.wraps[drained].analyzeCalls(); got != before+1 {
		t.Fatalf("recovered replica calls=%d, want %d", got, before+1)
	}
}

// TestGatewayBatchOrderAndSharding scatters a batch across 3 replicas and
// checks the merged response is in input order with every item analyzed,
// and that the work actually spread across the fleet.
func TestGatewayBatchOrderAndSharding(t *testing.T) {
	f := newFleet(t, 3, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{BatchChunk: 4})
	const n = 30
	progs := make([]service.BatchProgram, n)
	for i := range progs {
		progs[i] = service.BatchProgram{
			ID:     fmt.Sprintf("p%d", i),
			Source: workload.Ring(i + 2).String(),
		}
	}
	resp, data := postJSON(t, gts.URL+"/v1/analyze/batch", service.BatchRequest{Programs: progs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status=%d body=%s", resp.StatusCode, data)
	}
	var br service.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != n {
		t.Fatalf("results=%d, want %d", len(br.Results), n)
	}
	for i, r := range br.Results {
		if r.ID != fmt.Sprintf("p%d", i) {
			t.Fatalf("result %d has id %q: order not preserved", i, r.ID)
		}
		if r.ErrorCode != 0 || len(r.Report) == 0 {
			t.Fatalf("item %d failed: code=%q err=%q", i, r.ErrorCode, r.Error)
		}
	}
	if got := g.Metrics().ItemsOK.Load(); got != n {
		t.Fatalf("items ok=%d, want %d", got, n)
	}
	busy := 0
	for _, wr := range f.wraps {
		if wr.analyzeCalls() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("batch hit %d replicas; sharding did not spread", busy)
	}
}

// TestGatewayRetryOn429 verifies the backoff-and-retry path: the digest's
// owner sheds once, the retry lands (here on the same lone backend) and
// the client sees a clean 200.
func TestGatewayRetryOn429(t *testing.T) {
	f := newFleet(t, 1, service.Config{})
	f.wraps[0].shed = 1
	g, gts := newTestGateway(t, f.urls, Config{MaxRetries: 2})
	resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: workload.Ring(5).String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	if got := g.Metrics().Retries.Load(); got != 1 {
		t.Fatalf("retries=%d, want 1", got)
	}

	// Retries exhausted: the last upstream 429 is relayed verbatim.
	f.wraps[0].mu.Lock()
	f.wraps[0].shed = 10
	f.wraps[0].mu.Unlock()
	resp2, data2 := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: workload.Ring(6).String()})
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted retries: status=%d body=%s", resp2.StatusCode, data2)
	}
	if eb := decodeError(t, data2); eb.Code != service.CodeShed {
		t.Fatalf("code=%q, want %q (upstream body relayed, not rewrapped)", eb.Code, service.CodeShed)
	}
}

// TestGatewayNoBackendAvailable points the gateway at a dead address: the
// client gets the taxonomy code "unavailable" with a Retry-After hint.
func TestGatewayNoBackendAvailable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()
	g, gts := newTestGateway(t, []string{url}, Config{})
	resp, data := postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: "task main { }"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	if eb := decodeError(t, data); eb.Code != service.CodeUnavailable {
		t.Fatalf("code=%q, want %q", eb.Code, service.CodeUnavailable)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("unavailable response missing Retry-After")
	}
	g.CheckNow(context.Background())
	if code, _ := getBody(t, gts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("gateway /readyz=%d with every backend dead", code)
	}
	if got := g.Metrics().Unavailable.Load(); got == 0 {
		t.Fatal("unavailable counter not incremented")
	}
}

// TestGatewayInputValidation covers the gateway-authored 4xx responses.
func TestGatewayInputValidation(t *testing.T) {
	f := newFleet(t, 1, service.Config{})
	_, gts := newTestGateway(t, f.urls, Config{MaxBatch: 4, MaxBodyBytes: 512})

	resp, err := http.Post(gts.URL+"/v1/analyze", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status=%d", resp.StatusCode)
	}
	if eb := decodeError(t, data); eb.Code != service.CodeInvalidRequest {
		t.Fatalf("code=%q", eb.Code)
	}

	resp2, data2 := postJSON(t, gts.URL+"/v1/analyze/batch", service.BatchRequest{})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status=%d body=%s", resp2.StatusCode, data2)
	}

	over := make([]service.BatchProgram, 5)
	for i := range over {
		over[i] = service.BatchProgram{Source: "task main { }"}
	}
	resp3, data3 := postJSON(t, gts.URL+"/v1/analyze/batch", service.BatchRequest{Programs: over})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize batch: status=%d body=%s", resp3.StatusCode, data3)
	}

	big := service.AnalyzeRequest{Source: strings.Repeat("x", 2048)}
	resp4, data4 := postJSON(t, gts.URL+"/v1/analyze", big)
	if resp4.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status=%d body=%s", resp4.StatusCode, data4)
	}
	if eb := decodeError(t, data4); eb.Code != service.CodeTooLarge {
		t.Fatalf("code=%q", eb.Code)
	}
}

// TestGatewayAlgorithmsRelay compares the listing through the gateway
// with the replica's own answer.
func TestGatewayAlgorithmsRelay(t *testing.T) {
	f := newFleet(t, 2, service.Config{})
	_, gts := newTestGateway(t, f.urls, Config{})
	gc, gb := getBody(t, gts.URL+"/v1/algorithms")
	rc, rb := getBody(t, f.urls[0]+"/v1/algorithms")
	if gc != http.StatusOK || rc != http.StatusOK {
		t.Fatalf("status gateway=%d replica=%d", gc, rc)
	}
	if gb != rb {
		t.Fatalf("listing differs through gateway:\n%s\nvs\n%s", gb, rb)
	}
}

// TestGatewayMetricsExposition drives some traffic and checks every
// metric family appears, with ring ownership summing to the whole
// keyspace.
func TestGatewayMetricsExposition(t *testing.T) {
	f := newFleet(t, 3, service.Config{})
	_, gts := newTestGateway(t, f.urls, Config{})
	postJSON(t, gts.URL+"/v1/analyze", service.AnalyzeRequest{Source: workload.Ring(3).String()})
	postJSON(t, gts.URL+"/v1/analyze/batch", service.BatchRequest{Programs: []service.BatchProgram{
		{Source: workload.Ring(4).String()},
	}})
	code, text := getBody(t, gts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status=%d", code)
	}
	for _, want := range []string{
		`siwa_gateway_requests_total{endpoint="analyze"} 1`,
		`siwa_gateway_requests_total{endpoint="batch"} 1`,
		"siwa_gateway_singleflight_dedup_total",
		"siwa_gateway_retries_total",
		"siwa_gateway_unavailable_total",
		"siwa_gateway_panics_total",
		`siwa_gateway_batch_items_total{outcome="ok"} 1`,
		"siwa_gateway_report_cache_hits_total 0",
		"siwa_gateway_report_cache_misses_total 1",
		"siwa_gateway_report_cache_stale_total 0",
		"siwa_gateway_report_cache_entries 0",
		"siwa_gateway_backend_requests_total{backend=",
		"siwa_gateway_backend_failures_total{backend=",
		"siwa_gateway_backend_up{backend=",
		"siwa_gateway_ring_ownership_millionths{backend=",
		"siwa_gateway_backend_request_seconds_bucket",
		"siwa_gateway_backend_request_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The # TYPE lines announce exactly these families, each once.
	families := map[string]string{
		"siwa_gateway_requests_total":               "counter",
		"siwa_gateway_singleflight_dedup_total":     "counter",
		"siwa_gateway_retries_total":                "counter",
		"siwa_gateway_unavailable_total":            "counter",
		"siwa_gateway_panics_total":                 "counter",
		"siwa_gateway_hedges_total":                 "counter",
		"siwa_gateway_hedge_wins_total":             "counter",
		"siwa_gateway_retry_budget_exhausted_total": "counter",
		"siwa_gateway_retry_budget_tokens":          "gauge",
		"siwa_gateway_batch_items_total":            "counter",
		"siwa_gateway_report_cache_hits_total":      "counter",
		"siwa_gateway_report_cache_misses_total":    "counter",
		"siwa_gateway_report_cache_stale_total":     "counter",
		"siwa_gateway_report_cache_evictions_total": "counter",
		"siwa_gateway_report_cache_bytes":           "gauge",
		"siwa_gateway_report_cache_entries":         "gauge",
		"siwa_gateway_backend_requests_total":       "counter",
		"siwa_gateway_backend_failures_total":       "counter",
		"siwa_gateway_backend_up":                   "gauge",
		"siwa_gateway_ring_ownership_millionths":    "gauge",
		"siwa_gateway_backend_request_seconds":      "histogram",
		"siwa_gateway_traces_retained_total":        "counter",
		"siwa_gateway_traces_dropped_total":         "counter",
		"siwa_gateway_traces_retained_bytes":        "gauge",
		"siwa_gateway_go_goroutines":                "gauge",
		"siwa_gateway_go_heap_inuse_bytes":          "gauge",
		"siwa_gateway_go_gc_pause_seconds_total":    "counter",
		"siwa_build_info":                           "gauge",
	}
	declared := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			if _, dup := declared[f[2]]; dup {
				t.Errorf("TYPE for %s announced more than once", f[2])
			}
			declared[f[2]] = f[3]
		}
	}
	if !maps.Equal(declared, families) {
		t.Errorf("# TYPE families:\n got %v\nwant %v", declared, families)
	}
	var ownSum int64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "siwa_gateway_ring_ownership_millionths{") {
			fields := strings.Fields(line)
			v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			ownSum += v
		}
	}
	if ownSum < 999997 || ownSum > 1000003 {
		t.Fatalf("ring ownership sums to %d millionths, want ~1000000", ownSum)
	}
}

// TestGatewayServeDrain runs the gateway's own Serve loop and checks the
// drain flag: once the context is cancelled the (shared) handler reports
// draining on /readyz.
func TestGatewayServeDrain(t *testing.T) {
	f := newFleet(t, 1, service.Config{})
	g, gts := newTestGateway(t, f.urls, Config{ShutdownGrace: time.Second, HealthInterval: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	ln := newLocalListener(t)
	go func() { done <- g.Serve(ctx, ln) }()
	waitFor(t, "serve up", func() bool {
		resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	code, body := getBody(t, gts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("post-drain /readyz=%d body=%s", code, body)
	}
}

// TestSingleFlightLeaderCancelDoesNotPoisonFollowers pins the detachment
// of the single-flight leader's upstream call from its own request
// context: when the leader's client goes away mid-flight, the upstream
// call whose answer followers share keeps running, and the flight ends
// with the replica's answer instead of the leader's context.Canceled.
// Steps are ordered by channels alone.
func TestSingleFlightLeaderCancelDoesNotPoisonFollowers(t *testing.T) {
	arrived := make(chan struct{})
	release := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(arrived) // the test sends one request
		<-release
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"report":{}}`)
	}))
	defer stub.Close()
	g, _ := newTestGateway(t, []string{stub.URL}, Config{})
	upstream := make(chan context.Context, 1)
	next := g.client.Transport
	g.client.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
		upstream <- r.Context()
		return next.RoundTrip(r)
	})

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(service.AnalyzeRequest{Source: workload.Ring(3).String()})
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		g.Handler().ServeHTTP(rec, req)
	}()
	<-arrived
	cancel() // the leader's client goes away while the replica works
	if err := (<-upstream).Err(); err != nil {
		t.Fatalf("the leader's cancellation reached its upstream call: %v", err)
	}
	close(release)
	<-served
	if rec.Code != http.StatusOK {
		t.Fatalf("leader's flight ended with status=%d body=%s, want the replica's 200", rec.Code, rec.Body)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestGatewayLeaderKeepsRequestDeadline pins the one deadline per gateway
// request: an analyze with timeoutMs 120000 reaches the upstream call
// under a single-flight leader context that still has its full 120s, and
// the X-Deadline-Ms the replica is told agrees with that context.
func TestGatewayLeaderKeepsRequestDeadline(t *testing.T) {
	var mu sync.Mutex
	var header string
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		header = r.Header.Get(service.DeadlineHeader)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"report":{}}`)
	}))
	defer stub.Close()
	g, gts := newTestGateway(t, []string{stub.URL}, Config{})
	var leaderLeft time.Duration
	next := g.client.Transport
	g.client.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if deadline, ok := r.Context().Deadline(); ok {
			mu.Lock()
			leaderLeft = time.Until(deadline)
			mu.Unlock()
		}
		return next.RoundTrip(r)
	})

	resp, data := postJSON(t, gts.URL+"/v1/analyze",
		service.AnalyzeRequest{Source: workload.Ring(3).String(), TimeoutMs: 120_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d body=%s", resp.StatusCode, data)
	}
	mu.Lock()
	defer mu.Unlock()
	if leaderLeft < 119*time.Second || leaderLeft > 120*time.Second {
		t.Fatalf("leader context had %v left, want the request's 120s", leaderLeft)
	}
	ms, err := strconv.ParseInt(header, 10, 64)
	if err != nil {
		t.Fatalf("X-Deadline-Ms=%q: %v", header, err)
	}
	if d := time.Duration(ms)*time.Millisecond - leaderLeft; d < -time.Second || d > time.Second {
		t.Fatalf("X-Deadline-Ms=%d disagrees with the leader's %v", ms, leaderLeft)
	}
}

// TestGatewayAlgorithmsClientCancel: a client abandoning /v1/algorithms
// is reported as a timeout-coded abort, not "no healthy backend", and
// does not count toward the unavailable metric.
func TestGatewayAlgorithmsClientCancel(t *testing.T) {
	f := newFleet(t, 1, service.Config{})
	g, _ := newTestGateway(t, f.urls, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/algorithms", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status=%d, want 503", rec.Code)
	}
	eb := decodeError(t, rec.Body.Bytes())
	if eb.Code != service.CodeTimeout {
		t.Fatalf("code=%q, want %q (client cancel is not a fleet problem)", eb.Code, service.CodeTimeout)
	}
	if got := g.Metrics().Unavailable.Load(); got != 0 {
		t.Fatalf("unavailable metric=%d, want 0", got)
	}
}

// TestNormalizeIdempotent: normalizing a normalized Config changes
// nothing, for both tiers' Configs, whatever value one field starts at. A
// caller that normalizes before New (a main printing its listen address)
// must get the behaviour it asked for.
func TestNormalizeIdempotent(t *testing.T) {
	for _, cfg := range []any{Config{}, service.Config{}} {
		typ := reflect.TypeOf(cfg)
		for i := 0; i < typ.NumField(); i++ {
			for _, v := range fieldSamples(typ.Field(i).Type) {
				c := reflect.New(typ).Elem()
				c.Field(i).Set(v)
				once := c.MethodByName("Normalize").Call(nil)[0].Interface()
				twice := reflect.ValueOf(once).MethodByName("Normalize").Call(nil)[0].Interface()
				if !reflect.DeepEqual(once, twice) {
					t.Errorf("%s.%s=%v: Normalize once\n%+v\ntwice\n%+v",
						typ, typ.Field(i).Name, v, once, twice)
				}
			}
		}
	}
}

// fieldSamples returns zero, negative, small and large values of type t;
// a struct gets every field set to the same kind of value at once.
func fieldSamples(t reflect.Type) []reflect.Value {
	out := []reflect.Value{reflect.Zero(t)}
	for _, n := range []int64{-1, 7, 1000} {
		v := reflect.New(t).Elem()
		switch t.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(n)
		case reflect.Float64:
			v.SetFloat(float64(n) / 10)
		case reflect.String:
			v.SetString(fmt.Sprint(n))
		case reflect.Bool:
			v.SetBool(n > 0)
		case reflect.Slice:
			v = reflect.Append(v, reflect.ValueOf(fmt.Sprint("http://a:", n)))
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				v.Field(i).Set(fieldSamples(t.Field(i).Type)[len(out)])
			}
		}
		out = append(out, v)
	}
	return out
}
