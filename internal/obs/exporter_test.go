package obs

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// endedSpan builds a finished root span with a synthetic duration.
func endedSpan(name string, dur time.Duration) *Span {
	sp := NewTracer().Start(name)
	sp.End()
	sp.Dur = dur
	return sp
}

func TestExporterRetentionPriority(t *testing.T) {
	e := NewExporter(16, 1, 100*time.Millisecond)

	// error beats slow: a slow failed request is filed under "error".
	slowErr := endedSpan("a", time.Second)
	if got := e.Export(slowErr, true, 500); got != RetainError {
		t.Fatalf("slow+error: %q", got)
	}
	// slow beats degraded and sampled.
	slowDeg := endedSpan("b", time.Second)
	slowDeg.Set("degraded", 1)
	if got := e.Export(slowDeg, true, 200); got != RetainSlow {
		t.Fatalf("slow+degraded: %q", got)
	}
	// degraded beats sampled, including a degraded counter on a child.
	deg := endedSpan("c", time.Millisecond)
	ch := deg.StartChild("stage")
	ch.Set("degraded", 2)
	ch.End()
	if got := e.Export(deg, true, 200); got != RetainDegraded {
		t.Fatalf("degraded: %q", got)
	}
	// plain sampled.
	if got := e.Export(endedSpan("d", time.Millisecond), true, 200); got != RetainSampled {
		t.Fatalf("sampled: %q", got)
	}
	// fast, healthy, unsampled: dropped.
	if got := e.Export(endedSpan("e", time.Millisecond), false, 200); got != "" {
		t.Fatalf("dropped: %q", got)
	}

	reasons, dropped := e.Stats()
	want := map[string]uint64{RetainError: 1, RetainSlow: 1, RetainDegraded: 1, RetainSampled: 1}
	for k, v := range want {
		if reasons[k] != v {
			t.Fatalf("reasons=%v, want %v", reasons, want)
		}
	}
	if dropped != 1 {
		t.Fatalf("dropped=%d", dropped)
	}
}

func TestExporterSlowAndSamplingDisabled(t *testing.T) {
	e := NewExporter(4, 0, 0) // sampling off, slow off
	if e.SampleNext() {
		t.Fatal("sampleN=0 must never sample")
	}
	if got := e.Export(endedSpan("a", time.Hour), false, 200); got != "" {
		t.Fatalf("slow=0 retained a slow trace: %q", got)
	}
	// Errors are still kept even with everything else off.
	if got := e.Export(endedSpan("b", time.Millisecond), false, 503); got != RetainError {
		t.Fatalf("error with sampling off: %q", got)
	}
}

func TestExporterSampleEveryN(t *testing.T) {
	e := NewExporter(4, 3, 0)
	hits := 0
	for i := 0; i < 300; i++ {
		if e.SampleNext() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-3 sampling over 300 draws: %d hits", hits)
	}
	every := NewExporter(4, 1, 0)
	for i := 0; i < 10; i++ {
		if !every.SampleNext() {
			t.Fatal("sampleN=1 must always sample")
		}
	}
}

func TestExporterRingBound(t *testing.T) {
	e := NewExporter(3, 1, 0)
	for i := 0; i < 10; i++ {
		sp := NewTracer().Start("req")
		sp.Set("seq", int64(i))
		sp.End()
		e.Export(sp, true, 200)
	}
	list := e.List()
	if len(list.Traces) != 3 {
		t.Fatalf("ring holds %d, want 3", len(list.Traces))
	}
	if list.Retained != 10 || list.Dropped != 0 {
		t.Fatalf("retained=%d dropped=%d", list.Retained, list.Dropped)
	}
	// Newest first: the survivors are seq 9, 8, 7.
	for i, wantSeq := range []int64{9, 8, 7} {
		recs := e.Get(list.Traces[i].TraceID)
		if len(recs) != 1 || recs[0].Root.Counters["seq"] != wantSeq {
			t.Fatalf("slot %d: %+v", i, recs)
		}
	}
}

// TestExporterOutliersOutliveSampledFlood: a full ring evicts its oldest
// sampled record first, so an errored request survives any amount of
// sampled traffic; outliers evict each other, oldest first, only once no
// sampled record is left.
func TestExporterOutliersOutliveSampledFlood(t *testing.T) {
	e := NewExporter(8, 1, 0)
	export := func(status int) string {
		sp := endedSpan("req", time.Millisecond)
		e.Export(sp, true, status)
		return sp.TraceID.String()
	}
	first := export(500)
	var sampled []string
	for i := 0; i < 100; i++ {
		sampled = append(sampled, export(200))
	}
	list := e.List()
	if len(list.Traces) != 8 || len(e.Get(first)) != 1 {
		t.Fatalf("after 100 sampled exports: %d traces, error retained=%v", len(list.Traces), len(e.Get(first)) == 1)
	}
	// Newest first: the seven newest sampled traces, then the error.
	for i, tr := range list.Traces[:7] {
		if want := sampled[99-i]; tr.TraceID != want {
			t.Fatalf("slot %d: %s, want %s", i, tr.TraceID, want)
		}
	}
	if last := list.Traces[7]; last.TraceID != first || last.Reason != RetainError {
		t.Fatalf("oldest slot: %+v", last)
	}

	errs := []string{first}
	for i := 0; i < 7; i++ {
		errs = append(errs, export(500))
	}
	for _, id := range errs {
		if len(e.Get(id)) != 1 {
			t.Fatalf("error %s evicted while sampled records were left", id)
		}
	}
	ninth := export(503)
	if len(e.Get(first)) != 0 || len(e.Get(ninth)) != 1 {
		t.Fatal("a ninth error must evict the oldest error")
	}
	list = e.List()
	if len(list.Traces) != 8 || list.Traces[0].TraceID != ninth || list.Traces[7].TraceID != errs[1] {
		t.Fatalf("after the ninth error: %+v", list.Traces)
	}
}

// TestExporterEvictionMatchesModel checks the circular ring against the
// rule stated plainly on a slice: on overflow, drop the oldest sampled
// record, or the oldest record when none is sampled.
func TestExporterEvictionMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for round := 0; round < 200; round++ {
		size := 1 + rng.IntN(9)
		e := NewExporter(size, 1, 0)
		var model []TraceSummary // oldest first
		for i := rng.IntN(60); i > 0; i-- {
			status := 200
			if rng.IntN(3) == 0 {
				status = 500
			}
			sp := endedSpan("req", time.Millisecond)
			reason := e.Export(sp, true, status)
			if len(model) == size {
				victim := 0
				for j, tr := range model {
					if tr.Reason == RetainSampled {
						victim = j
						break
					}
				}
				model = append(model[:victim], model[victim+1:]...)
			}
			model = append(model, TraceSummary{TraceID: sp.TraceID.String(), Reason: reason})
		}
		got := e.List().Traces
		if len(got) != len(model) {
			t.Fatalf("round %d: ring holds %d, model %d", round, len(got), len(model))
		}
		bytes, sampled := 0, 0
		for _, rec := range e.ring {
			if rec != nil {
				bytes += len(rec.tree)
				if rec.Reason == RetainSampled {
					sampled++
				}
			}
		}
		if bytes != e.bytes || sampled != e.sampled {
			t.Fatalf("round %d: ring holds %d B and %d sampled, exporter counts %d B and %d", round, bytes, sampled, e.bytes, e.sampled)
		}
		for i, tr := range got {
			want := model[len(model)-1-i]
			if tr.TraceID != want.TraceID || tr.Reason != want.Reason {
				t.Fatalf("round %d (size %d): listing slot %d is %s/%s, model %s/%s",
					round, size, i, tr.TraceID, tr.Reason, want.TraceID, want.Reason)
			}
		}
	}
}

func TestExporterGetReturnsClones(t *testing.T) {
	e := NewExporter(4, 1, 0)
	sp := NewTracer().Start("req")
	sp.End()
	e.Export(sp, true, 200)
	id := sp.TraceID.String()

	recs := e.Get(id)
	if len(recs) != 1 {
		t.Fatalf("records: %d", len(recs))
	}
	recs[0].Root.Children = append(recs[0].Root.Children, &SpanJSON{Name: "grafted"})
	again := e.Get(id)
	if len(again[0].Root.Children) != 0 {
		t.Fatal("grafting into a Get result mutated the ring")
	}
}

func TestExporterMultipleRecordsPerTrace(t *testing.T) {
	// A replica holds one record per chunk request of the same batch trace.
	e := NewExporter(8, 1, 0)
	tid := NewTraceID()
	for i := 0; i < 3; i++ {
		tr := NewTracer()
		tr.SetRemote(tid, NewSpanID())
		sp := tr.Start("server /v1/analyze/batch")
		sp.End()
		e.Export(sp, true, 200)
	}
	if recs := e.Get(tid.String()); len(recs) != 3 {
		t.Fatalf("records for one trace id: %d, want 3", len(recs))
	}
}

func TestExporterHTTP(t *testing.T) {
	e := NewExporter(4, 1, 0)
	sp := NewTracer().Start("req")
	child := sp.StartChild("stage")
	child.End()
	sp.End()
	e.Export(sp, true, 200)
	id := sp.TraceID.String()

	srv := httptest.NewServer(http.HandlerFunc(e.ServeList))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list TraceList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 || list.Traces[0].TraceID != id || list.Traces[0].Spans != 2 {
		t.Fatalf("list: %+v", list)
	}
}

func TestExporterWriteProm(t *testing.T) {
	e := NewExporter(2, 1, 0)
	e.Export(endedSpan("a", time.Millisecond), true, 200)
	e.Export(endedSpan("b", time.Millisecond), false, 500)
	e.Export(endedSpan("c", time.Millisecond), false, 200)
	// The retained-bytes gauge sums the records the ring holds now.
	held := func() int {
		n := 0
		for _, rec := range e.ring {
			if rec != nil {
				n += len(rec.tree)
			}
		}
		return n
	}
	var b strings.Builder
	e.WriteProm(&b, "siwa")
	out := b.String()
	for _, want := range []string{
		`siwa_traces_retained_total{reason="sampled"} 1`,
		`siwa_traces_retained_total{reason="error"} 1`,
		`siwa_traces_retained_total{reason="slow"} 0`,
		`siwa_traces_retained_total{reason="degraded"} 0`,
		`siwa_traces_dropped_total 1`,
		"# TYPE siwa_traces_retained_bytes gauge\n",
		fmt.Sprintf("siwa_traces_retained_bytes %d\n", held()),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	if held() == 0 {
		t.Fatal("retained records have no size")
	}
	// An eviction takes its record's bytes off the gauge.
	big := endedSpan(strings.Repeat("d", 1000), time.Millisecond)
	e.Export(big, true, 200)
	b.Reset()
	e.WriteProm(&b, "siwa")
	if want := fmt.Sprintf("siwa_traces_retained_bytes %d\n", held()); !strings.Contains(b.String(), want) || held() < 1000 {
		t.Fatalf("after an eviction, prom output missing %q:\n%s", want, b.String())
	}
}

func TestExporterNilSafety(t *testing.T) {
	var e *Exporter
	if e.SampleNext() || e.SlowThreshold() != 0 {
		t.Fatal("nil exporter must be inert")
	}
	if got := e.Export(endedSpan("a", time.Second), true, 500); got != "" {
		t.Fatalf("nil Export: %q", got)
	}
	if e.Get("x") != nil {
		t.Fatal("nil Get must return nil")
	}
	reasons, dropped := e.Stats()
	if reasons != nil || dropped != 0 {
		t.Fatal("nil Stats must be zero")
	}
	var b strings.Builder
	e.WriteProm(&b, "siwa") // must not panic
	list := e.List()
	if list.Traces == nil || len(list.Traces) != 0 {
		t.Fatalf("nil List: %+v", list)
	}
}
