package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordStrings are the awkward names, keys and values a random tree
// draws from, next to random byte strings.
var recordStrings = []string{
	"",
	"x",
	"parse",
	"σπαν名前—ü",
	"\xff\xfe not utf-8",
	`quote " backslash \ newline` + "\n",
	"<script>&amp;",
	strings.Repeat("long", 75), // past one uvarint byte of length
}

func randomString(rng *rand.Rand) string {
	if rng.IntN(3) == 0 {
		b := make([]byte, rng.IntN(40))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return string(b)
	}
	return recordStrings[rng.IntN(len(recordStrings))]
}

func randomCounter(rng *rand.Rand) int64 {
	switch rng.IntN(8) {
	case 0:
		return 0
	case 1:
		return -1
	case 2:
		return 1 << 62
	case 3:
		return -(1 << 62)
	case 4:
		return math.MaxInt64
	case 5:
		return math.MinInt64
	default:
		return rng.Int64() - rng.Int64()
	}
}

// decorate ends sp and gives it random counters, attrs, duration and
// (sometimes zero) span and parent ids.
func decorate(rng *rand.Rand, sp *Span) {
	for i := rng.IntN(4); i > 0; i-- {
		sp.Set(randomString(rng), randomCounter(rng))
	}
	if rng.IntN(4) == 0 {
		sp.Add("degraded", 0) // a zero counter is still projected
	}
	for i := rng.IntN(3); i > 0; i-- {
		sp.SetAttr(randomString(rng), randomString(rng))
	}
	if rng.IntN(6) == 0 {
		sp.ID = SpanID{}
	}
	if rng.IntN(6) == 0 {
		sp.ParentID = SpanID{}
	}
	sp.End()
	switch rng.IntN(4) {
	case 0:
		sp.Dur = 0
	case 1:
		sp.Dur = time.Duration(rng.Int64())
	default:
		sp.Dur = time.Duration(rng.IntN(int(10 * time.Second)))
	}
}

// randomTree builds an ended span tree of one of four shapes: hundreds
// of spans wide, hundreds deep, children added from several goroutines,
// or random branching. The root sometimes continues a remote
// traceparent, and sometimes has the zero trace id.
func randomTree(rng *rand.Rand) *Span {
	tr := NewTracer()
	if rng.IntN(3) == 0 {
		tr.SetRemote(NewTraceID(), NewSpanID())
	}
	root := tr.Start(randomString(rng))
	if rng.IntN(8) == 0 {
		root.TraceID = TraceID{}
	}
	switch rng.IntN(4) {
	case 0:
		for i := 100 + rng.IntN(300); i > 0; i-- {
			decorate(rng, root.StartChild(randomString(rng)))
		}
	case 1:
		chain := []*Span{root}
		for i := 100 + rng.IntN(150); i > 0; i-- {
			chain = append(chain, chain[len(chain)-1].StartChild(randomString(rng)))
		}
		for i := len(chain) - 1; i > 0; i-- {
			decorate(rng, chain[i])
		}
	case 2:
		var wg sync.WaitGroup
		for g := 2 + rng.IntN(6); g > 0; g-- {
			grng := rand.New(rand.NewPCG(rng.Uint64(), rng.Uint64()))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := grng.IntN(40); i > 0; i-- {
					c := root.StartChild(randomString(grng))
					for j := grng.IntN(3); j > 0; j-- {
						decorate(grng, c.StartChild(randomString(grng)))
					}
					decorate(grng, c)
				}
			}()
		}
		wg.Wait()
	default:
		grow(rng, root, 4)
	}
	decorate(rng, root)
	return root
}

func grow(rng *rand.Rand, sp *Span, depth int) {
	if depth == 0 {
		return
	}
	for i := rng.IntN(5); i > 0; i-- {
		c := sp.StartChild(randomString(rng))
		grow(rng, c, depth-1)
		decorate(rng, c)
	}
}

// serve runs a debug handler for path and returns the status and body.
func serve(h http.HandlerFunc, path string) (int, []byte) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rr := httptest.NewRecorder()
	h(rr, req)
	return rr.Code, rr.Body.Bytes()
}

func render(v any) []byte {
	rr := httptest.NewRecorder()
	WriteTraceJSON(rr, http.StatusOK, v)
	return rr.Body.Bytes()
}

// TestExporterRecordMatchesLiveProjection is the property that lets the
// ring drop the live tree: for random trees, Get returns exactly what
// Span.JSON returns, and the /debug/traces bodies are byte for byte the
// ones rendered from the live projection.
func TestExporterRecordMatchesLiveProjection(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewPCG(seed, 15))
		root := randomTree(rng)
		want := root.JSON()
		spans := 0
		root.Walk(func(int, *Span) { spans++ })

		e := NewExporter(4, 1, 0)
		status := []int{200, 500}[rng.IntN(2)]
		reason := e.Export(root, true, status)
		id := root.TraceID.String()
		recs := e.Get(id)
		if len(recs) != 1 {
			t.Fatalf("seed %d: %d records", seed, len(recs))
		}
		if !reflect.DeepEqual(recs[0].Root, want) {
			got, _ := json.Marshal(recs[0].Root)
			exp, _ := json.Marshal(want)
			t.Fatalf("seed %d: decoded tree differs from Span.JSON (%d vs %d bytes)\ngot  %.300s\nwant %.300s", seed, len(got), len(exp), got, exp)
		}

		live := &ExportedTrace{
			TraceID:    id,
			Name:       root.Name,
			Reason:     reason,
			Status:     status,
			Start:      root.Start,
			DurationMs: float64(root.Dur) / float64(time.Millisecond),
			Root:       want,
		}
		if !bytes.Equal(render(TraceLookup{TraceID: id, Records: e.Get(id)}), render(TraceLookup{TraceID: id, Records: []*ExportedTrace{live}})) {
			t.Fatalf("seed %d: trace lookup body differs from the live projection's", seed)
		}
		wantList := TraceList{Retained: 1, Traces: []TraceSummary{{
			TraceID:    id,
			Name:       root.Name,
			Reason:     reason,
			Status:     status,
			Start:      root.Start,
			DurationMs: live.DurationMs,
			Spans:      spans,
		}}}
		if code, body := serve(e.ServeList, "/debug/traces"); code != http.StatusOK || !bytes.Equal(body, render(wantList)) {
			t.Fatalf("seed %d: ServeList body differs from the live projection's (status %d)", seed, code)
		}
	}
}

// chunkTrace builds the tree a replica records for one batch chunk of 16
// cold analyses: the request root and, per program, an analyze span with
// the six stage spans under it, carrying the pipeline's counters and
// attrs (113 spans).
func chunkTrace() *Span {
	tr := NewTracer()
	tr.SetRemote(NewTraceID(), NewSpanID())
	root := tr.Start("server /v1/analyze/batch")
	for i := 0; i < 16; i++ {
		an := root.StartChild("analyze")
		an.SetAttr("source_digest", fmt.Sprintf("%016x", rand.Uint64()))
		stage := func(name string, counters ...string) {
			sp := an.StartChild(name)
			sp.SetAttr("stage_cache", "miss")
			for j, c := range counters {
				sp.Set(c, int64(40+17*i+j))
			}
			sp.End()
		}
		stage("parse")
		stage("unroll", "rendezvous_before", "rendezvous_after")
		stage("sync-graph", "tasks", "rendezvous_nodes", "sync_edges", "control_edges")
		stage("clg", "clg_nodes", "clg_edges", "clg_sync_edges")
		stage("detect:naive", "hypotheses", "scc_runs", "witnesses")
		stage("stall", "unbalanced_signals")
		an.SetAttr("stage_cache", "miss")
		an.End()
	}
	root.End()
	return root
}

// TestExporterRetainedHeapPerTrace pins what a full ring costs: 256
// retained chunk-shaped traces may grow the live heap by at most 20 KiB
// each. Kept as live span trees they cost about 75 KiB each.
func TestExporterRetainedHeapPerTrace(t *testing.T) {
	const traces = 256
	e := NewExporter(traces, 1, 0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < traces; i++ {
		e.Export(chunkTrace(), true, http.StatusOK)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perTrace := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / traces
	if got := len(e.List().Traces); got != traces {
		t.Fatalf("ring holds %d traces, want %d", got, traces)
	}
	runtime.KeepAlive(e)
	t.Logf("%d B of live heap per retained 113-span trace (%d B encoded)", perTrace, e.bytes/traces)
	if perTrace > 20<<10 {
		t.Fatalf("a retained chunk trace costs %d B of live heap, want <= %d", perTrace, 20<<10)
	}
}

// TestExporterExportAllocs pins a retained Export to a fixed number of
// allocations whatever the tree size: the record, the ring entry and the
// trace id string, never a per-span one.
func TestExporterExportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	wide := NewTracer().Start("wide")
	for i := 0; i < 2000; i++ {
		c := wide.StartChild("child")
		c.Set("i", int64(i))
		c.End()
	}
	wide.End()
	for _, tc := range []struct {
		name string
		root *Span
	}{
		{"one span", endedSpan("a", time.Millisecond)},
		{"chunk", chunkTrace()},
		{"2001 spans", wide},
	} {
		e := NewExporter(8, 1, 0) // fills after 8 runs: the eviction path is measured too
		allocs := testing.AllocsPerRun(100, func() { e.Export(tc.root, true, http.StatusOK) })
		if allocs > 4 {
			t.Errorf("%s: retained Export made %.0f allocations, want <= 4", tc.name, allocs)
		}
	}
}

// TestExporterConcurrent drives Export, Get, List and WriteProm from
// several goroutines at once, for the race detector.
func TestExporterConcurrent(t *testing.T) {
	e := NewExporter(16, 1, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := chunkTrace()
				e.Export(root, true, []int{200, 500}[i%2])
				if recs := e.Get(root.TraceID.String()); len(recs) > 0 && recs[0].Root.Name != root.Name {
					t.Errorf("Get returned %q", recs[0].Root.Name)
				}
				_ = e.List()
				e.WriteProm(&strings.Builder{}, "siwa")
			}
		}()
	}
	wg.Wait()
	if n := len(e.List().Traces); n != 16 {
		t.Fatalf("ring holds %d, want 16", n)
	}
}

// BenchmarkExporterExportChunk measures retaining one 113-span chunk
// trace: the encode and the ring insert.
func BenchmarkExporterExportChunk(b *testing.B) {
	e := NewExporter(256, 1, 0)
	root := chunkTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Export(root, true, http.StatusOK)
	}
}
