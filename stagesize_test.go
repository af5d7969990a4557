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
// and dropped, so only what the kept entries reference stays live — the
// source text included, since parsed identifiers are substrings of it.
// The an: entry is also measured on its own: the cache evicts a source's
// entries one at a time, oldest first, so an an: entry can outlive the
// src: entry it was built from.
func TestStageCacheSizeEstimates(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	const perFamily = 60
	for _, kept := range [][]string{{"src:", "an:"}, {"an:"}} {
		for fi, fam := range stageSizeFamilies {
			name := fmt.Sprintf("%s %v", fam.name, kept)
			reported, retained := stageEntryFootprint(t, name, fam.gen, int64(100+fi), perFamily, kept)
			ratio := float64(reported) / float64(retained)
			t.Logf("%-24s reported %8d B, retained %8d B, ratio %.2f", name, reported, retained, ratio)
			if ratio < 0.67 || ratio > 1.5 {
				t.Errorf("%s: SizeBytes sums to %.2f× the retained heap, want within [0.67, 1.5]", name, ratio)
			}
		}
	}
}

// stageEntryFootprint analyzes n programs from gen, keeps the entries
// named by the key prefixes, and returns their summed SizeBytes and the
// heap they retain.
func stageEntryFootprint(t *testing.T, name string, gen func(*rand.Rand) *Program, seed int64, n int, prefixes []string) (reported, retained int64) {
	rng := rand.New(rand.NewSource(seed))
	kept := make([]memo.Entry, 0, len(prefixes)*n)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		src := gen(rng).String() + fmt.Sprintf("-- size %d\n", i)
		mc := NewStageCache(1 << 30)
		if _, err := AnalyzeSource(src, Options{Algorithm: AlgoRefinedPairs, StageCache: mc}); err != nil {
			t.Fatalf("%s #%d: %v", name, i, err)
		}
		dk := memo.SourceDigest(src).Key()
		for _, prefix := range prefixes {
			key := prefix + dk
			if prefix == "an:" {
				key += ":f0"
			}
			e, ok := mc.Get(key)
			if !ok {
				t.Fatalf("%s #%d: no %q entry", name, i, prefix)
			}
			kept = append(kept, e)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	for _, e := range kept {
		reported += e.SizeBytes()
	}
	runtime.KeepAlive(kept)
	// The kept slice itself is measurement scaffolding, not cache.
	retained = int64(m1.HeapAlloc) - int64(m0.HeapAlloc) - int64(cap(kept))*16
	return reported, retained
}
