package obs

import (
	"io"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeAndCounters(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("analyze")
	a := root.StartChild("sync-graph")
	a.Add("nodes", 10)
	a.Add("nodes", 2)
	a.Set("sync_edges", 7)
	a.End()
	b := root.StartChild("detect:refined")
	b.Add("hypotheses", 5)
	time.Sleep(time.Millisecond)
	b.End()
	root.End()

	if tr.Root() != root {
		t.Fatal("Root() != first Start()")
	}
	if got := a.Counter("nodes"); got != 12 {
		t.Fatalf("nodes=%d, want 12", got)
	}
	if names := a.CounterNames(); len(names) != 2 || names[0] != "nodes" || names[1] != "sync_edges" {
		t.Fatalf("CounterNames=%v", names)
	}
	if root.Child("detect:refined") != b || root.Child("missing") != nil {
		t.Fatal("Child lookup broken")
	}
	// Sequential children's durations are bounded by the root duration.
	var sum time.Duration
	for _, c := range root.Children {
		if c.Dur < 0 {
			t.Fatalf("negative duration on %s", c.Name)
		}
		sum += c.Dur
	}
	if sum > root.Dur {
		t.Fatalf("children sum %v exceeds root %v", sum, root.Dur)
	}

	tree := root.Tree()
	for _, want := range []string{"analyze", "sync-graph", "detect:refined", "hypotheses=5", "nodes=12"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}

	js := root.JSON()
	if js.Name != "analyze" || len(js.Children) != 2 {
		t.Fatalf("json: %+v", js)
	}
	if js.Children[1].Counters["hypotheses"] != 5 {
		t.Fatalf("json counters: %+v", js.Children[1])
	}
	if js.Children[1].DurationMs <= 0 {
		t.Fatalf("json duration: %+v", js.Children[1])
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x")
	if s != nil || tr.Root() != nil {
		t.Fatal("nil tracer must produce nil spans")
	}
	// None of these may panic.
	c := s.StartChild("y")
	c.Add("k", 1)
	c.Set("k", 2)
	c.End()
	s.End()
	s.Walk(func(int, *Span) { t.Fatal("walked a nil span") })
	if s.Tree() != "" || s.JSON() != nil || s.Counter("k") != 0 || s.CounterNames() != nil || s.Child("y") != nil {
		t.Fatal("nil span accessors must return zero values")
	}
	var h *Histogram
	h.Observe(time.Second) // nil histogram is a no-op
}

func TestEndIsIdempotent(t *testing.T) {
	s := NewTracer().Start("x")
	time.Sleep(100 * time.Microsecond)
	s.End()
	first := s.Dur
	time.Sleep(time.Millisecond)
	s.End()
	if s.Dur != first {
		t.Fatalf("second End changed duration: %v -> %v", first, s.Dur)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0.001, 0.01, 0.1)
	h.Observe(500 * time.Microsecond) // <= 0.001
	h.Observe(time.Millisecond)       // <= 0.001 (le is inclusive)
	h.Observe(5 * time.Millisecond)   // <= 0.01
	h.Observe(time.Second)            // +Inf

	s := h.Snapshot()
	wantCum := []uint64{2, 3, 3, 4}
	for i, want := range wantCum {
		if s.Cumulative[i] != want {
			t.Fatalf("cumulative=%v, want %v", s.Cumulative, wantCum)
		}
	}
	if s.Count != 4 {
		t.Fatalf("count=%d", s.Count)
	}
	wantSum := (500*time.Microsecond + time.Millisecond + 5*time.Millisecond + time.Second).Seconds()
	if diff := s.SumSeconds - wantSum; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("sum=%v, want %v", s.SumSeconds, wantSum)
	}

	var b strings.Builder
	fam := Family{Name: "x_seconds", Help: "test", Type: "histogram", Labels: []string{"stage"}}
	fam.Histogram(&b, h, "unroll")
	out := b.String()
	for _, want := range []string{
		`x_seconds_bucket{stage="unroll",le="0.001"} 2`,
		`x_seconds_bucket{stage="unroll",le="0.01"} 3`,
		`x_seconds_bucket{stage="unroll",le="0.1"} 3`,
		`x_seconds_bucket{stage="unroll",le="+Inf"} 4`,
		`x_seconds_count{stage="unroll"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}

	var nb strings.Builder
	Family{Name: "x_seconds", Help: "test", Type: "histogram"}.Histogram(&nb, h)
	if !strings.Contains(nb.String(), `x_seconds_bucket{le="+Inf"} 4`) {
		t.Fatalf("unlabeled prom output:\n%s", nb.String())
	}
}

func TestFamilyLabelCountMismatchPanics(t *testing.T) {
	fam := Family{Name: "x_total", Help: "test", Type: "counter", Labels: []string{"outcome"}}
	for _, values := range [][]string{nil, {"ok", "extra"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Sample with %d values for 1 key did not panic", len(values))
				}
			}()
			fam.Sample(io.Discard, 1, values...)
		}()
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, bad := range [][]float64{{}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v accepted", bad)
				}
			}()
			NewHistogram(bad...)
		}()
	}
}
