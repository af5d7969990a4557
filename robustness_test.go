package siwa

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/waves"
	"repro/internal/workload"
)

// TestLimitsRejectUnrollBomb is the end-to-end regression test for the
// Lemma 1 blowup: a 20-deep nested-loop program would unroll to ~2^21
// rendezvous statements, and Analyze under DefaultLimits must refuse it
// with a typed *ResourceError in well under a second, because the size is
// predicted arithmetically rather than allocated.
func TestLimitsRejectUnrollBomb(t *testing.T) {
	bomb := workload.NestedLoops(20, 2)
	start := time.Now()
	_, err := Analyze(bomb, Options{Limits: DefaultLimits()})
	elapsed := time.Since(start)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err=%v, want *ResourceError", err)
	}
	if re.Resource != "unrolled rendezvous nodes" {
		t.Fatalf("resource=%q", re.Resource)
	}
	if elapsed > time.Second {
		t.Fatalf("rejection took %v; the bomb was materialized", elapsed)
	}
	// Without limits the same program is accepted (and is why servers set
	// them) — prove the gate is the limit, not the program, on a smaller
	// sibling that is still cheap to actually unroll.
	if _, err := Analyze(workload.NestedLoops(6, 2), Options{Limits: DefaultLimits()}); err != nil {
		t.Fatalf("in-budget nest rejected: %v", err)
	}
}

// TestLimitsRefuseDenseSyncGraph checks MaxSyncEdges at both ends. The
// default refuses a program whose sync graph would hold 1,048,576 edges
// (one task sending s.m 1,024 times, another accepting it as often) from
// the unrolled program's counts, before the sync graph is built. It
// admits every corpus and golden-family program, whose predicted counts
// equal their built graphs' and stay three orders of magnitude below it.
func TestLimitsRefuseDenseSyncGraph(t *testing.T) {
	const n = 1024
	var b strings.Builder
	b.WriteString("task s is begin\n")
	b.WriteString(strings.Repeat("  r.m;\n", n))
	b.WriteString("end;\ntask r is begin\n")
	b.WriteString(strings.Repeat("  accept m;\n", n))
	b.WriteString("end;\n")
	tr := NewTracer()
	_, err := AnalyzeSource(b.String(), Options{Limits: DefaultLimits(), Tracer: tr, StageCache: NewStageCache(8 << 20)})
	var re *ResourceError
	if !errors.As(err, &re) || re.Resource != "sync edges" || re.Actual != n*n {
		t.Fatalf("err=%v, want a sync edges ResourceError with actual %d", err, n*n)
	}
	tr.Root().Walk(func(_ int, sp *Span) {
		if sp.Name == "sync-graph" {
			t.Fatal("the sync graph was built before the refusal")
		}
	})

	var progs []*Program
	files, err := filepath.Glob("testdata/*.ada")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v %v", files, err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, MustParse(string(src)))
	}
	for fi, fam := range goldenFamilies {
		rng := rand.New(rand.NewSource(int64(fi)))
		for i := 0; i < 20; i++ {
			progs = append(progs, fam.gen(rng))
		}
	}
	most := int64(0)
	for _, p := range progs {
		rep, err := Analyze(p, Options{Limits: DefaultLimits()})
		if err != nil {
			t.Fatal(err)
		}
		count := rep.Unrolled.CountSyncEdges()
		if got := int64(rep.Graph.NumSyncEdges()); got != count {
			t.Fatalf("predicted %d sync edges, the graph holds %d:\n%s", count, got, p)
		}
		most = max(most, count)
	}
	if most*1000 > int64(DefaultLimits().MaxSyncEdges) {
		t.Fatalf("largest corpus count %d is within 1000x of the default limit %d", most, DefaultLimits().MaxSyncEdges)
	}
	t.Logf("largest corpus count %d, default limit %d", most, DefaultLimits().MaxSyncEdges)
}

func TestLimitsRejectTasksAndNodes(t *testing.T) {
	p := MustParse(`
task a is begin b.m; end;
task b is begin accept m; end;
`)
	_, err := Analyze(p, Options{Limits: Limits{MaxTasks: 1}})
	var re *ResourceError
	if !errors.As(err, &re) || re.Resource != "tasks" {
		t.Fatalf("err=%v, want tasks ResourceError", err)
	}
	_, err = Analyze(p, Options{Limits: Limits{MaxNodes: 1}})
	if !errors.As(err, &re) || re.Resource != "rendezvous nodes" {
		t.Fatalf("err=%v, want rendezvous nodes ResourceError", err)
	}
	// Zero-value limits keep the historical unbounded behaviour.
	if _, err := Analyze(p, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestLimitsAgreeAcrossPaths requires every entry point to refuse the
// same programs on the same limit: Analyze, AnalyzeSource without a
// stage cache, through a cold cache, and through a cache warmed by a
// limitless run (so the refusal comes from the recheck on a hit). A
// loop-free program is never unrolled, so MaxUnrolledNodes does not
// apply to it.
func TestLimitsAgreeAcrossPaths(t *testing.T) {
	const loopFree = "task a is begin b.m; end; task b is begin accept m; end;"
	const loops = "task a is begin loop 3 times b.m; end loop; end; " +
		"task b is begin loop 3 times accept m; end loop; end;"
	for _, tc := range []struct {
		src  string
		lim  Limits
		want string // the refused resource; "" accepts
	}{
		{loopFree, Limits{MaxTasks: 1}, "tasks"},
		{loopFree, Limits{MaxNodes: 1}, "rendezvous nodes"},
		{loopFree, Limits{MaxUnrolledNodes: 1}, ""},
		{loops, Limits{MaxUnrolledNodes: 3}, "unrolled rendezvous nodes"},
		{loops, Limits{MaxUnrolledNodes: 4}, ""},
	} {
		warm := NewStageCache(1 << 20)
		if _, err := AnalyzeSource(tc.src, Options{StageCache: warm}); err != nil {
			t.Fatal(err)
		}
		for _, path := range []struct {
			name string
			run  func() (*Report, error)
		}{
			{"Analyze", func() (*Report, error) { return Analyze(MustParse(tc.src), Options{Limits: tc.lim}) }},
			{"uncached", func() (*Report, error) { return AnalyzeSource(tc.src, Options{Limits: tc.lim}) }},
			{"cold", func() (*Report, error) {
				return AnalyzeSource(tc.src, Options{Limits: tc.lim, StageCache: NewStageCache(1 << 20)})
			}},
			{"warm", func() (*Report, error) { return AnalyzeSource(tc.src, Options{Limits: tc.lim, StageCache: warm}) }},
		} {
			_, err := path.run()
			got := ""
			var re *ResourceError
			if errors.As(err, &re) {
				got = re.Resource
			} else if err != nil {
				t.Fatalf("%s under %v: %v", path.name, tc.lim, err)
			}
			if got != tc.want {
				t.Errorf("%s under %v: refused %q, want %q", path.name, tc.lim, got, tc.want)
			}
		}
	}
}

// TestStagePanicContained injects a panic into a mid-pipeline stage and
// requires a typed *InternalError naming the stage, with the stack from
// the panic site — never a crash, never a silent success.
func TestStagePanicContained(t *testing.T) {
	defer fault.Reset()
	fault.Set("analyze.sync-graph", fault.Mode{Kind: fault.KindPanic})
	p := MustParse("task a is begin accept m; end; task b is begin a.m; end;")
	rep, err := Analyze(p, Options{})
	if rep != nil {
		t.Fatal("panicked analysis returned a report")
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err=%v, want *InternalError", err)
	}
	if ie.Stage != "sync-graph" {
		t.Fatalf("stage=%q", ie.Stage)
	}
	if ie.Stack == "" || !strings.Contains(ie.Stack, "goroutine") {
		t.Fatal("no stack captured")
	}
	if inj, ok := ie.Value.(fault.Injected); !ok || inj.Point != "analyze.sync-graph" {
		t.Fatalf("panic value %v", ie.Value)
	}
	// After the fault clears, the same program analyzes normally.
	fault.Reset()
	if _, err := Analyze(p, Options{}); err != nil {
		t.Fatalf("post-fault analysis failed: %v", err)
	}
}

func TestParsePanicContained(t *testing.T) {
	defer fault.Reset()
	fault.Set("parse", fault.Mode{Kind: fault.KindPanic})
	_, err := Parse("task a is begin accept m; end;")
	var ie *InternalError
	if !errors.As(err, &ie) || ie.Stage != "parse" {
		t.Fatalf("err=%v, want parse InternalError", err)
	}
}

// TestDegradeExactBudget: with Degrade set, an exact exploration that hits
// its state budget yields a degraded-but-sound report instead of losing
// the run — the polynomial verdicts are present and the report says which
// stage gave up and why.
func TestDegradeExactBudget(t *testing.T) {
	p := workload.ForkFan(6, 4)
	rep, err := Analyze(p, Options{
		Algorithm:    AlgoRefined,
		Exact:        true,
		ExactOptions: waves.Options{MaxStates: 64},
		Degrade:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("budget-truncated exact run not marked degraded")
	}
	if len(rep.DegradedReasons) == 0 || !strings.Contains(rep.DegradedReasons[0], "state budget") {
		t.Fatalf("reasons: %v", rep.DegradedReasons)
	}
	if rep.Exact == nil || !rep.Exact.Truncated {
		t.Fatalf("exact: %+v", rep.Exact)
	}
	// The polynomial verdicts survived the degradation.
	if rep.Deadlock.Algorithm != AlgoRefined {
		t.Fatalf("deadlock verdict missing: %+v", rep.Deadlock)
	}
	if rep.Stall == nil {
		t.Fatal("stall verdict missing from degraded report")
	}
	// The degradation is visible in both projections.
	if !strings.Contains(rep.Summary(), "DEGRADED") {
		t.Fatalf("summary silent about degradation:\n%s", rep.Summary())
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var jr JSONReport
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatal(err)
	}
	if !jr.Degraded || len(jr.DegradedReasons) == 0 {
		t.Fatalf("JSON projection lost degradation: %s", data)
	}
}

// TestDegradeExactDeadline: a deadline that expires during the exact wave
// exploration degrades (carrying the refined verdict) instead of erroring.
func TestDegradeExactDeadline(t *testing.T) {
	// Exponential wave space; the polynomial stages finish in microseconds.
	p := workload.ForkFan(8, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	rep, err := AnalyzeContext(ctx, p, Options{
		Algorithm: AlgoRefined,
		Exact:     true,
		Degrade:   true,
	})
	if err != nil {
		t.Fatalf("degrade mode returned error: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("deadline-hit exact run not marked degraded")
	}
	if rep.Deadlock.Algorithm != AlgoRefined {
		t.Fatalf("refined verdict missing: %+v", rep.Deadlock)
	}
	// Without Degrade, the identical run is an error wrapping the deadline.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel2()
	if _, err := AnalyzeContext(ctx2, p, Options{Algorithm: AlgoRefined, Exact: true}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want DeadlineExceeded", err)
	}
}

// TestDegradeNeverAltersVerdicts: on a program every stage finishes for,
// Degrade must be a no-op — same verdicts, not marked degraded.
func TestDegradeNeverAltersVerdicts(t *testing.T) {
	p := workload.Ring(4)
	plain, err := Analyze(p, Options{Algorithm: AlgoRefined, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	soft, err := Analyze(p, Options{Algorithm: AlgoRefined, Exact: true, Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	if soft.Degraded {
		t.Fatal("completed run marked degraded")
	}
	if plain.Deadlock.MayDeadlock != soft.Deadlock.MayDeadlock ||
		plain.Exact.Deadlock != soft.Exact.Deadlock {
		t.Fatal("Degrade changed verdicts on a completed run")
	}
}

func TestParseLimitsSpellings(t *testing.T) {
	base := DefaultLimits()
	cases := []struct {
		spec string
		want Limits
		ok   bool
	}{
		{"", base, true},
		{"off", Limits{}, true},
		{"none", Limits{}, true},
		{"default", DefaultLimits(), true},
		{"tasks=9", Limits{MaxTasks: 9, MaxNodes: base.MaxNodes, MaxUnrolledNodes: base.MaxUnrolledNodes, MaxSyncEdges: base.MaxSyncEdges}, true},
		{"tasks=1,nodes=2,unrolled=3,syncedges=4", Limits{1, 2, 3, 4}, true},
		{" tasks=4 , unrolled=5 ", Limits{4, base.MaxNodes, 5, base.MaxSyncEdges}, true},
		{"bogus=1", Limits{}, false},
		{"tasks", Limits{}, false},
		{"tasks=x", Limits{}, false},
	}
	for _, c := range cases {
		got, err := ParseLimits(c.spec, base)
		if c.ok != (err == nil) {
			t.Errorf("%q: err=%v", c.spec, err)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("%q: got %+v, want %+v", c.spec, got, c.want)
		}
	}
	// String round-trips through ParseLimits.
	l := Limits{7, 8, 9, 10}
	back, err := ParseLimits(l.String(), Limits{})
	if err != nil || back != l {
		t.Fatalf("round-trip: %+v err=%v", back, err)
	}
}
