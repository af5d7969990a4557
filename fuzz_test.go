package siwa

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzLimits keeps fuzzed analyses small enough to run thousands per
// second while still covering every pipeline stage.
var fuzzLimits = Limits{MaxTasks: 32, MaxNodes: 256, MaxUnrolledNodes: 1024}

// fuzzCache is shared by every fuzzed input, so lookups and evictions
// interleave across unrelated sources.
var fuzzCache = NewStageCache(1 << 20)

// FuzzAnalyzeNaive drives the whole pipeline (parse, validate, limits,
// unroll, sync graph, CLG, naive + refined detectors, stall) on arbitrary
// input and asserts the robustness contract:
//
//   - no panic ever escapes — a *InternalError from Analyze means a stage
//     panicked, which is a bug by definition, so the fuzzer fails on it;
//   - the detector spectrum stays monotone: the refined detector only
//     removes false alarms, so refined "may deadlock" implies naive "may
//     deadlock" (Theorem: each refinement is at least as precise while
//     remaining conservative);
//   - a run of the source through the shared fuzzCache renders the same
//     JSON bytes as the uncached run.
//
// Seeds are the checked-in example corpus (procedures included), so
// fuzzing starts from real programs exercising every construct.
func FuzzAnalyzeNaive(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.ada"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no testdata seeds (err=%v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("task a is begin b.m; end; task b is begin accept m; end;")
	f.Add("task a is begin while w loop b.m; end loop; end; task b is begin accept m; a.r; end;")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			failOnInternal(t, err)
			return // rejection is fine; panics are not
		}
		naive, err := Analyze(p, Options{Algorithm: AlgoNaive, Limits: fuzzLimits})
		if err != nil {
			// Validation and resource-limit rejections are correct
			// behaviour on hostile input; contained panics are bugs.
			failOnInternal(t, err)
			return
		}
		cached, err := AnalyzeSource(src, Options{Algorithm: AlgoNaive, Limits: fuzzLimits, StageCache: fuzzCache})
		if err != nil {
			t.Fatalf("cached run failed where the uncached one succeeded: %v", err)
		}
		want, err := json.Marshal(naive.JSONReport())
		if err != nil {
			t.Fatal(err)
		}
		if got, err := json.Marshal(cached.JSONReport()); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("cached report diverged (err=%v)\ncached:   %s\nuncached: %s\n%s", err, got, want, src)
		}
		refined, err := Analyze(p, Options{Algorithm: AlgoRefined, Limits: fuzzLimits})
		if err != nil {
			failOnInternal(t, err)
			t.Fatalf("refined failed where naive succeeded: %v", err)
		}
		if refined.Deadlock.MayDeadlock && !naive.Deadlock.MayDeadlock {
			t.Fatalf("spectrum not monotone: refined flags a deadlock naive missed\n%s", src)
		}
		// A deadlock-free verdict from the selected detector must agree
		// with the report-level certificate.
		if !naive.Deadlock.MayDeadlock && !naive.DeadlockFree() {
			t.Fatal("verdict and certificate disagree")
		}
	})
}

func failOnInternal(t *testing.T, err error) {
	t.Helper()
	var ie *InternalError
	if errors.As(err, &ie) {
		t.Fatalf("pipeline stage %s panicked: %v\n%s", ie.Stage, ie.Value, ie.Stack)
	}
}
