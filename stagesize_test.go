package siwa

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/memo"
	"repro/internal/workload"
)

// stageSizeFamilies draws one program per call from each internal/workload
// family, at the sizes the service sees (plus a few larger ones).
var stageSizeFamilies = []struct {
	name string
	gen  func(rng *rand.Rand) *Program
}{
	{"pipeline", func(r *rand.Rand) *Program { return workload.Pipeline(3+r.Intn(6), 1+r.Intn(3)) }},
	{"client-server", func(r *rand.Rand) *Program { return workload.ClientServer(2 + r.Intn(8)) }},
	{"barrier", func(r *rand.Rand) *Program { return workload.Barrier(2+r.Intn(3), 1+r.Intn(3)) }},
	{"ring", func(r *rand.Rand) *Program { return workload.Ring(3 + r.Intn(8)) }},
	{"ring-broken", func(r *rand.Rand) *Program { return workload.RingBroken(3 + r.Intn(8)) }},
	{"crossring", func(r *rand.Rand) *Program { return workload.CrossRing(3+r.Intn(4), 1+r.Intn(2)) }},
	{"nested", func(r *rand.Rand) *Program { return workload.NestedLoops(1+r.Intn(3), 2+r.Intn(2)) }},
	{"forkfan", func(r *rand.Rand) *Program { return workload.ForkFan(2+r.Intn(4), 1+r.Intn(3)) }},
	{"random", func(r *rand.Rand) *Program {
		return workload.Random(r, workload.Config{
			Tasks: 3 + r.Intn(4), StmtsPerTask: 3 + r.Intn(3), Msgs: 2 + r.Intn(2),
			BranchProb: 0.2, LoopProb: 0.15, MaxDepth: 2, AcceptRatio: 0.5,
		})
	}},
}

// TestStageCacheSizeEstimates checks that the stage cache's byte budget
// is honest: for every workload family, the summed SizeBytes of the src:
// and an: entries the pipeline builds must be within [0.67, 1.5] of the
// heap they actually retain, measured as HeapAlloc growth across
// runtime.GC(). Each source is rendered, analyzed through a private cache
// and dropped, so only what the two entries reference stays live — the
// source text included, since parsed identifiers are substrings of it.
func TestStageCacheSizeEstimates(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	const perFamily = 60
	for fi, fam := range stageSizeFamilies {
		rng := rand.New(rand.NewSource(int64(100 + fi)))
		kept := make([]memo.Entry, 0, 2*perFamily)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < perFamily; i++ {
			src := fam.gen(rng).String() + fmt.Sprintf("-- size %d\n", i)
			mc := NewStageCache(1 << 30)
			if _, err := AnalyzeSource(src, Options{Algorithm: AlgoRefinedPairs, StageCache: mc}); err != nil {
				t.Fatalf("%s #%d: %v", fam.name, i, err)
			}
			dk := memo.SourceDigest(src).Key()
			for _, key := range []string{"src:" + dk, "an:" + dk + ":f0"} {
				e, ok := mc.Get(key)
				if !ok {
					t.Fatalf("%s #%d: no %q entry", fam.name, i, key[:3])
				}
				kept = append(kept, e)
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		var reported int64
		for _, e := range kept {
			reported += e.SizeBytes()
		}
		runtime.KeepAlive(kept)
		// The kept slice itself is measurement scaffolding, not cache.
		retained := int64(m1.HeapAlloc) - int64(m0.HeapAlloc) - int64(cap(kept))*16
		ratio := float64(reported) / float64(retained)
		t.Logf("%-13s reported %8d B, retained %8d B, ratio %.2f", fam.name, reported, retained, ratio)
		if ratio < 0.67 || ratio > 1.5 {
			t.Errorf("%s: SizeBytes sums to %.2f× the retained heap, want within [0.67, 1.5]", fam.name, ratio)
		}
	}
}
