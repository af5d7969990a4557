package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Retention reasons, in decreasing priority: a trace retained for several
// reasons is labeled with the strongest one.
const (
	RetainError    = "error"    // request finished with status >= 400
	RetainSlow     = "slow"     // root duration >= the slow threshold
	RetainDegraded = "degraded" // a span recorded a degraded counter
	RetainSampled  = "sampled"  // head-sampling decision at trace birth
)

// ExportedTrace is one completed, retained trace record: the projected
// span tree plus the retention verdict. A process exports at most one
// record per request, but a replica can hold several records for one
// trace id (the gateway fans a batch out as sibling chunk requests).
type ExportedTrace struct {
	TraceID    string    `json:"traceId"`
	Name       string    `json:"name"`
	Reason     string    `json:"reason"`
	Status     int       `json:"status,omitempty"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"durationMs"`
	Root       *SpanJSON `json:"root"`

	// tree is the span tree behind a ring record in its compact encoding
	// (record.go), and spans its span count. Export encodes the ended tree
	// once and the debug read path decodes it. nil for records decoded
	// from another process's JSON, which carry Root.
	tree  []byte
	spans int
}

// materialize returns an independent copy with Root populated: decoded
// from the record (itself a fresh deep structure), or deep-cloned from
// Root. Callers may graft remote subtrees into the result without
// touching the ring's copy.
func (e *ExportedTrace) materialize() *ExportedTrace {
	out := *e
	if e.tree != nil {
		out.Root = decodeRecord(e.tree, e.TraceID)
		out.tree, out.spans = nil, 0
		return &out
	}
	out.Root = e.Root.Clone()
	return &out
}

// spanCount reads the record's stored count, or walks Root.
func (e *ExportedTrace) spanCount() int {
	if e.tree != nil {
		return e.spans
	}
	n := 0
	e.Root.Walk(func(*SpanJSON) { n++ })
	return n
}

// TraceSummary is the per-trace line of the trace listing.
type TraceSummary struct {
	TraceID    string    `json:"traceId"`
	Name       string    `json:"name"`
	Reason     string    `json:"reason"`
	Status     int       `json:"status,omitempty"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"durationMs"`
	Spans      int       `json:"spans"`
}

// TraceList is the GET /debug/traces response body.
type TraceList struct {
	Retained uint64         `json:"retained"`
	Dropped  uint64         `json:"dropped"`
	Traces   []TraceSummary `json:"traces"`
}

// TraceLookup is the GET /debug/traces/{id} response body. Records is
// every retained record carrying the trace id, oldest first.
type TraceLookup struct {
	TraceID string           `json:"traceId"`
	Records []*ExportedTrace `json:"records"`
}

// Exporter retains completed span trees in a bounded in-memory ring and
// serves them as JSON for debugging. Retention is head-sampling (1-in-N,
// decided where the trace is born and propagated via traceparent flags)
// plus always-retain for slow, degraded, or errored requests. When the
// ring is full a new record evicts the oldest sampled record, and an
// outlier (error, slow, degraded) only when no sampled record is left, so
// a flood of sampled traffic never pushes out the pathological requests
// operators care about.
type Exporter struct {
	sampleN int
	slow    time.Duration

	mu       sync.Mutex
	ring     []*ExportedTrace  // circular: n records from slot head, oldest first
	head     int               // slot of the oldest record
	n        int               // records held
	sampled  int               // records held with reason sampled
	bytes    int               // summed record sizes of the ring
	seq      uint64            // head-sampling counter
	reasons  map[string]uint64 // retained-by-reason counters
	dropped  uint64
	exported uint64
}

// RetainedTraces is the capacity of each tier's /debug/traces ring.
const RetainedTraces = 256

// NewExporter builds an exporter retaining up to ringSize traces (at
// least 1; both tiers pass RetainedTraces), head-sampling 1 in sampleN
// new traces (0 or negative disables sampling, 1 samples everything),
// and always retaining requests at least slow long (0 or negative
// disables the slow path). A ringSize below 1 panics.
func NewExporter(ringSize, sampleN int, slow time.Duration) *Exporter {
	if ringSize < 1 {
		panic("obs: trace ring size must be at least 1")
	}
	return &Exporter{
		sampleN: sampleN,
		slow:    slow,
		ring:    make([]*ExportedTrace, ringSize),
		reasons: make(map[string]uint64, 4),
	}
}

// SlowThreshold returns the configured slow-request threshold (<= 0 = off).
func (e *Exporter) SlowThreshold() time.Duration {
	if e == nil {
		return 0
	}
	return e.slow
}

// SampleNext makes the head decision for a newly born trace: true for 1
// in N calls. Nil-safe (false).
func (e *Exporter) SampleNext() bool {
	if e == nil || e.sampleN <= 0 {
		return false
	}
	if e.sampleN == 1 {
		return true
	}
	e.mu.Lock()
	e.seq++
	hit := e.seq%uint64(e.sampleN) == 1
	e.mu.Unlock()
	return hit
}

// Export considers a completed request's root span for retention.
// sampled is the trace's head decision, status the response status (0
// when unknown). Returns the retention reason, or "" when dropped.
// Nil-safe on both receiver and root.
func (e *Exporter) Export(root *Span, sampled bool, status int) string {
	if e == nil || root == nil {
		return ""
	}
	reason := ""
	switch {
	case status >= 400:
		reason = RetainError
	case e.slow > 0 && root.Dur >= e.slow:
		reason = RetainSlow
	case isDegraded(root):
		reason = RetainDegraded
	case sampled:
		reason = RetainSampled
	}
	if reason == "" {
		e.mu.Lock()
		e.dropped++
		e.mu.Unlock()
		return ""
	}
	// The request is over, so the tree is immutable from here: encode it
	// once, outside the lock, and let the live tree go.
	rec := &ExportedTrace{
		TraceID:    root.TraceID.String(),
		Name:       root.Name,
		Reason:     reason,
		Status:     status,
		Start:      root.Start,
		DurationMs: float64(root.Dur) / float64(time.Millisecond),
	}
	rec.tree, rec.spans = encodeRecord(root)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == len(e.ring) {
		e.evict()
	}
	e.ring[e.slot(e.n)] = rec
	e.n++
	if reason == RetainSampled {
		e.sampled++
	}
	e.bytes += len(rec.tree)
	e.reasons[reason]++
	e.exported++
	return reason
}

// slot maps the i-th oldest record to its ring slot.
func (e *Exporter) slot(i int) int { return (e.head + i) % len(e.ring) }

// evict removes the oldest sampled record, or the oldest record when only
// outliers are held. The outliers older than the victim each move one
// slot newer, so the ring stays in export order; when the oldest record
// is the victim, nothing moves. Caller holds e.mu.
func (e *Exporter) evict() {
	k := 0
	if e.sampled > 0 {
		for e.ring[e.slot(k)].Reason != RetainSampled {
			k++
		}
		e.sampled--
	}
	e.bytes -= len(e.ring[e.slot(k)].tree)
	for ; k > 0; k-- {
		e.ring[e.slot(k)] = e.ring[e.slot(k-1)]
	}
	e.ring[e.head] = nil
	e.head = e.slot(1)
	e.n--
}

func isDegraded(root *Span) bool {
	degraded := false
	root.Walk(func(_ int, sp *Span) {
		if sp.Counter("degraded") > 0 {
			degraded = true
		}
	})
	return degraded
}

// List summarizes the retained traces, newest first.
func (e *Exporter) List() TraceList {
	if e == nil {
		return TraceList{Traces: []TraceSummary{}}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := TraceList{
		Retained: e.exported,
		Dropped:  e.dropped,
		Traces:   make([]TraceSummary, 0, e.n),
	}
	for i := e.n - 1; i >= 0; i-- {
		rec := e.ring[e.slot(i)]
		out.Traces = append(out.Traces, TraceSummary{
			TraceID:    rec.TraceID,
			Name:       rec.Name,
			Reason:     rec.Reason,
			Status:     rec.Status,
			Start:      rec.Start,
			DurationMs: rec.DurationMs,
			Spans:      rec.spanCount(),
		})
	}
	return out
}

// Get returns deep copies of every retained record for the trace id,
// oldest first (nil when unknown). Copies, so the caller may graft
// remote subtrees into the result without racing the ring. Records are
// immutable once in the ring, so they are decoded after the lock is
// released.
func (e *Exporter) Get(id string) []*ExportedTrace {
	if e == nil {
		return nil
	}
	var out []*ExportedTrace
	e.mu.Lock()
	for i := 0; i < e.n; i++ {
		if rec := e.ring[e.slot(i)]; rec.TraceID == id {
			out = append(out, rec)
		}
	}
	e.mu.Unlock()
	for i, rec := range out {
		out[i] = rec.materialize()
	}
	return out
}

// Stats returns the retained-by-reason counters and the dropped count.
func (e *Exporter) Stats() (reasons map[string]uint64, dropped uint64) {
	if e == nil {
		return nil, 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	reasons = make(map[string]uint64, len(e.reasons))
	for k, v := range e.reasons {
		reasons[k] = v
	}
	return reasons, e.dropped
}

// The trace-ring families, declared without the tier prefix.
var (
	famTracesRetained = Family{Name: "_traces_retained_total", Help: "Completed traces retained in the debug ring, by reason.", Type: "counter", Labels: []string{"reason"}}
	famTracesDropped  = Family{Name: "_traces_dropped_total", Help: "Completed traces dropped by head sampling.", Type: "counter"}
	famTracesBytes    = Family{Name: "_traces_retained_bytes", Help: "Encoded size of the span records held by the debug trace ring.", Type: "gauge"}
)

// WriteProm renders the exporter counters in Prometheus text format under
// the given metric prefix.
func (e *Exporter) WriteProm(w io.Writer, prefix string) {
	if e == nil {
		return
	}
	reasons, dropped := e.Stats()
	retained := famTracesRetained.Prefixed(prefix)
	retained.Head(w)
	for _, reason := range []string{RetainError, RetainSlow, RetainDegraded, RetainSampled} {
		retained.Sample(w, reasons[reason], reason)
	}
	famTracesDropped.Prefixed(prefix).Write(w, dropped)
	e.mu.Lock()
	held := e.bytes
	e.mu.Unlock()
	famTracesBytes.Prefixed(prefix).Write(w, held)
}

// ServeList handles GET /debug/traces.
func (e *Exporter) ServeList(w http.ResponseWriter, r *http.Request) {
	WriteTraceJSON(w, http.StatusOK, e.List())
}

// WriteTraceJSON writes a /debug/traces body: indented JSON, for reading
// by eye. The gateway's stitched trace lookup uses it too, so debug
// output looks the same on both tiers.
func WriteTraceJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// SortRecordsByStart orders records oldest first; used by callers that
// merge records from several exporters.
func SortRecordsByStart(recs []*ExportedTrace) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start.Before(recs[j].Start) })
}
