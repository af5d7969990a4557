package siwa

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
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
// runtime.GC(); an an: entry alone, whose size is its slabs' capacities,
// within [0.8, 1.25]. Each source is rendered, analyzed through a private cache
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
			reported, retained, _ := stageEntryFootprint(t, name, fam.gen, int64(100+fi), perFamily, kept)
			ratio := float64(reported) / float64(retained)
			t.Logf("%-24s reported %8d B, retained %8d B, ratio %.2f", name, reported, retained, ratio)
			lo, hi := 0.67, 1.5
			if len(kept) == 1 {
				lo, hi = 0.8, 1.25
			}
			if ratio < lo || ratio > hi {
				t.Errorf("%s: SizeBytes sums to %.2f× the retained heap, want within [%.2f, %.2f]", name, ratio, lo, hi)
			}
		}
	}
}

// TestStageCacheEntryObjects pins the layout of the entries the stage
// cache keeps longest, by the heap objects they retain: an an: entry is
// the analyzer's block, its int and word slabs and the sync graph's node,
// name and task slabs; a vd: entry is the verdict, its witness table and
// one witness slab, whatever the witness count. Objects, not bytes, are
// what each GC cycle marks and what pins spans shared with garbage.
//
// A vd: entry with witnesses is exactly three objects, so the count has
// no room for the runtime's own occasional allocations during a fill (a
// few objects, now and then): an over-limit family is measured up to
// twice more and judged by its smallest count, which an extra object per
// entry would still raise in every measurement.
func TestStageCacheEntryObjects(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	const perFamily = 60
	for _, c := range []struct {
		prefix string
		max    float64
	}{{"an:", 7}, {"vd:", 3}} {
		for fi, fam := range stageSizeFamilies {
			name := fmt.Sprintf("%s %s", fam.name, c.prefix)
			per := math.Inf(1)
			for try := 0; try < 3 && per > c.max; try++ {
				_, _, objects := stageEntryFootprint(t, name, fam.gen, int64(100+fi), perFamily, []string{c.prefix})
				per = min(per, float64(objects)/perFamily)
			}
			t.Logf("%-20s %5.2f heap objects per entry", name, per)
			if per > c.max {
				t.Errorf("%s: %.2f heap objects per entry, want at most %.0f", name, per, c.max)
			}
		}
	}
}

// stageEntryFootprint analyzes n programs from gen, keeps the entries
// named by the key prefixes (the vd: entry of the analysis' algorithm),
// and returns their summed SizeBytes, the heap they retain and the heap
// objects they retain. The sweeps run serially: a parallel sweep's
// goroutines leave descriptors the runtime keeps for reuse, which would
// count as retained objects.
func stageEntryFootprint(t *testing.T, name string, gen func(*rand.Rand) *Program, seed int64, n int, prefixes []string) (reported, retained, objects int64) {
	const algo = AlgoRefinedPairs
	rng := rand.New(rand.NewSource(seed))
	kept := make([]memo.Entry, 0, len(prefixes)*n)
	// One analysis before the baseline, so state a first use allocates
	// is not counted against the entries.
	if _, err := AnalyzeSource(gen(rand.New(rand.NewSource(-seed))).String(), Options{Algorithm: algo, StageCache: NewStageCache(1 << 30), Parallelism: 1}); err != nil {
		t.Fatalf("%s warm-up: %v", name, err)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		src := gen(rng).String() + fmt.Sprintf("-- size %d\n", i)
		mc := NewStageCache(1 << 30)
		if _, err := AnalyzeSource(src, Options{Algorithm: algo, StageCache: mc, Parallelism: 1}); err != nil {
			t.Fatalf("%s #%d: %v", name, i, err)
		}
		dk := memo.SourceDigest(src).Key()
		for _, prefix := range prefixes {
			key := prefix + dk
			switch prefix {
			case "an:":
				key += ":f0"
			case "vd:":
				key += ":f0:" + strconv.Itoa(int(algo))
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
	// The kept slice was allocated before the baseline.
	retained = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	objects = int64(m1.HeapObjects) - int64(m0.HeapObjects)
	return reported, retained, objects
}
