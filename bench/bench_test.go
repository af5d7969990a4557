package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the fleet the harness re-executes.
func TestMain(m *testing.M) {
	if mode, ok := os.LookupEnv(fleetEnv); ok {
		os.Exit(fleetExit(mode))
	}
	os.Exit(m.Run())
}

// tiny runs every workload, open-mix too, for a few milliseconds of
// measurement.
func tiny(t *testing.T, trace bool) *record {
	t.Helper()
	if testing.Short() {
		t.Skip("starts fleet processes")
	}
	rec, _, err := run(context.Background(), allSpecs(), runConfig{Seed: 1, Seconds: 0.04, Rounds: 1, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
		for _, wr := range rec.Workloads {
			t.Logf("%s: attempted %d failed %d failures %v", wr.Name, wr.Attempted, wr.Failed, wr.Failures)
		}
		t.Fatalf("correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
	}
	if len(rec.Workloads) != len(allSpecs()) {
		t.Fatalf("%d workload records, want %d", len(rec.Workloads), len(allSpecs()))
	}
	return rec
}

func TestEndToEndRun(t *testing.T) {
	rec := tiny(t, false)
	for _, wr := range rec.Workloads {
		for _, m := range endToEnd {
			s := wr.Metrics[m.Name]
			if s == nil || s.Unit != m.Unit {
				t.Errorf("%s: metric %s missing or without unit %q: %+v", wr.Name, m.Name, m.Unit, s)
			}
		}
		if wr.Metrics["success_rate"].Median != 1 {
			t.Errorf("%s: success_rate %v", wr.Name, wr.Metrics["success_rate"].Median)
		}
	}
	var out bytes.Buffer
	printResult(&out, rec)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if want := len(allSpecs()) * len(endToEnd); len(res.Metrics) != want || !res.Correct {
		t.Errorf("result line: correct=%v, %d metrics, want %d", res.Correct, len(res.Metrics), want)
	}
}

func TestTracedRunJoinsSpans(t *testing.T) {
	rec := tiny(t, true)
	for _, wr := range rec.Workloads {
		for _, m := range perLayer {
			if _, ok := wr.Layers[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wr.Name, m.Name)
			}
		}
		js := wr.Join
		// Every client request has a gateway span and a replica span of
		// its own, except single-flight followers, which share the
		// leader's replica call.
		if js.Requests == 0 || js.Gateway != js.Requests || js.Joined+js.Dedup < js.Requests || js.NegativeSelf != 0 {
			t.Errorf("%s: spans do not join: %+v", wr.Name, *js)
		}
	}
}

func TestInputsDeterministic(t *testing.T) {
	for _, s := range allSpecs() {
		a := genInputs(s, 7, 0.05, 2).digests()
		b := genInputs(s, 7, 0.05, 2).digests()
		c := genInputs(s, 8, 0.05, 2).digests()
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different request digests", s.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, same request digests", s.Name)
		}
	}
}

func TestReportHashesIgnoreLayout(t *testing.T) {
	report := `{"schemaVersion":3,"deadlock":{"algorithm":"pairs","witnesses":[["a","b \"c\""]]}}`
	want := reportHash([]byte(report))
	var buf bytes.Buffer
	single := "{\n  \"cached\": true,\n  \"report\": {\n    \"schemaVersion\": 3,\n    \"deadlock\": {\"algorithm\": \"pairs\", \"witnesses\": [[\"a\", \"b \\\"c\\\"\"]]}\n  },\n  \"elapsedMs\": 0.5\n}\n"
	if h, ok := singleReport([]byte(single), &buf); !ok || h != want {
		t.Errorf("single: got %x %v, want %x", h, ok, want)
	}
	batch := `{"results": [{"id": "0", "report": ` + report + `, "cached": false},
		{"id": "1", "cached": false, "error": "boom", "errorCode": "internal"}], "elapsedMs": 2}`
	hashes := make([]uint64, 2)
	if !batchReports([]byte(batch), &buf, hashes) || hashes[0] != want || hashes[1] != 0 {
		t.Errorf("batch: got %x", hashes)
	}
	if batchReports([]byte(batch), &buf, make([]uint64, 3)) {
		t.Error("batch with the wrong item count accepted")
	}
}

func TestSummaryMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := summarize("ms", []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("got q1 %v median %v q3 %v", s.Q1, s.Median, s.Q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	s = summarize("ms", []float64{4, 1, 2})
	if s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Errorf("got q1 %v median %v q3 %v", s.Q1, s.Median, s.Q3)
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json, which
// the regression gate reads, in step with the metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, default -seconds %v", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %+v, want %s: %s", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v\nwant %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer %+v\nwant %+v", bj.PerLayer, perLayer)
	}
}

// digests lists the SHA-256 of every request body in send order (warm-up,
// then the measured list): the identity of a workload's inputs.
func (in *inputs) digests() [][32]byte {
	var out [][32]byte
	add := func(rs []*request) {
		for _, r := range rs {
			out = append(out, sha256.Sum256(r.Body))
		}
	}
	for _, u := range in.Warmup {
		add(u)
	}
	for _, u := range in.Units {
		add(u)
	}
	for _, sc := range in.Scheds {
		add(sc)
	}
	return out
}
