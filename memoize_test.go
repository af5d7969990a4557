package siwa

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/memo"
	"repro/internal/workload"
)

// TestStageCacheMatchesUncached checks that across 200 random programs a
// run through the stage cache produces byte-for-byte the same report as a
// run without one — cold through a fresh cache, and again fully warm — for
// the complete detector spectrum, the constraint-4 certifier, the
// enumeration detector, and the stall analysis. Both runs go through the
// one pipeline, so the independent reference is the committed digest of
// TestVerdictBytesGolden. One cache is shared across all programs so
// admission and lookup interleave the way they do in the service.
func TestStageCacheMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mc := NewStageCache(64 << 20)
	for i := 0; i < 200; i++ {
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(3)
		cfg.StmtsPerTask = 2 + rng.Intn(3)
		cfg.BranchProb = 0.25
		cfg.LoopProb = 0.25
		src := workload.Random(rng, cfg).String()
		opt := Options{
			AllAlgorithms: true,
			Constraint4:   true,
			Enumerate:     true,
			FIFO:          i%2 == 1,
		}

		ref, err := AnalyzeSource(src, opt) // nil StageCache: every group built
		if err != nil {
			t.Fatalf("program %d: uncached analyze failed: %v", i, err)
		}
		refJSON := ref.JSONReport()

		opt.StageCache = mc
		for _, pass := range []string{"cold", "warm"} {
			rep, err := AnalyzeSource(src, opt)
			if err != nil {
				t.Fatalf("program %d (%s): memoized analyze failed: %v", i, pass, err)
			}
			if got := rep.JSONReport(); !reflect.DeepEqual(got, refJSON) {
				t.Fatalf("program %d (%s): memoized report diverged\nmemoized: %+v\nplain:    %+v\nsource:\n%s",
					i, pass, got, refJSON, src)
			}
		}
	}
	st := mc.Stats()
	if st.Hits == 0 || st.Builds == 0 {
		t.Fatalf("cache saw no traffic: %+v", st)
	}
	// Each program's warm pass repeats the cold pass's key set exactly, so
	// single-flight plus residency caps builds at the miss count of the
	// cold passes alone.
	if st.Builds > st.Misses {
		t.Fatalf("more builds than misses: %+v", st)
	}
}

// TestStageCacheConcurrentSingleFlight hammers one cache from many
// goroutines analyzing a small set of sources with every detector enabled,
// under the race detector. The single-flight contract is that concurrent
// misses on one key collapse: the total number of builds never exceeds the
// number of distinct keys (no entry is evicted — the budget is ample).
func TestStageCacheConcurrentSingleFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nSources, nGoroutines, nRounds = 4, 8, 3

	srcs := make([]string, nSources)
	refs := make([]JSONReport, nSources)
	for i := range srcs {
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + i%3
		cfg.StmtsPerTask = 3
		cfg.LoopProb = 0.3
		srcs[i] = workload.Random(rng, cfg).String()
		ref, err := AnalyzeSource(srcs[i], Options{AllAlgorithms: true, Enumerate: true})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref.JSONReport()
	}

	mc := NewStageCache(64 << 20)
	var wg sync.WaitGroup
	errs := make(chan error, nGoroutines)
	for g := 0; g < nGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < nRounds; r++ {
				for s := range srcs {
					i := (g + r + s) % nSources
					rep, err := AnalyzeSource(srcs[i], Options{
						AllAlgorithms: true,
						Enumerate:     true,
						StageCache:    mc,
					})
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: %v", g, err)
						return
					}
					if got := rep.JSONReport(); !reflect.DeepEqual(got, refs[i]) {
						errs <- fmt.Errorf("goroutine %d: source %d diverged under concurrency", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := mc.Stats()
	if st.Evictions != 0 {
		t.Fatalf("ample budget evicted: %+v", st)
	}
	// Distinct keys per source: src, an, 5 verdicts (detect:naive shares
	// the spectrum's entry), stall, enumerate = 9.
	const maxKeys = nSources * 9
	if st.Builds > maxKeys {
		t.Fatalf("single-flight leaked: %d builds for at most %d distinct keys (%+v)",
			st.Builds, maxKeys, st)
	}
	if st.Entries > maxKeys {
		t.Fatalf("more entries than distinct keys: %+v", st)
	}
}

// TestStageCacheTinyBudgetEviction squeezes concurrent analyses through a
// cache too small to hold even one source's artifacts. Entries churn
// constantly; the invariant under the race detector is that eviction only
// unlinks entries — artifacts handed to a live analysis stay valid, so
// every report still matches the uncached reference.
func TestStageCacheTinyBudgetEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const nSources, nGoroutines = 3, 6

	srcs := make([]string, nSources)
	refs := make([]JSONReport, nSources)
	for i := range srcs {
		cfg := workload.DefaultConfig()
		cfg.Tasks = 3
		cfg.StmtsPerTask = 3
		cfg.LoopProb = 0.3
		srcs[i] = workload.Random(rng, cfg).String()
		ref, err := AnalyzeSource(srcs[i], Options{AllAlgorithms: true})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref.JSONReport()
	}

	mc := NewStageCache(2048) // a few entries at most; most admissions evict
	var wg sync.WaitGroup
	errs := make(chan error, nGoroutines)
	for g := 0; g < nGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				i := (g + r) % nSources
				rep, err := AnalyzeSource(srcs[i], Options{
					AllAlgorithms: true,
					StageCache:    mc,
				})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got := rep.JSONReport(); !reflect.DeepEqual(got, refs[i]) {
					errs <- fmt.Errorf("goroutine %d: source %d corrupted by eviction churn", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := mc.Stats(); st.Bytes > 2048 {
		t.Fatalf("byte budget exceeded: %+v", st)
	}
}

// TestStageCacheFollowerRetriesLeaderLimits: limits are not part of any
// key, so a request that joins another caller's flight must not inherit
// that caller's limit refusal. The leader is a bare flight on the src:
// key that fails with a *ResourceError once a limitless AnalyzeSource has
// joined it (the second miss); the follower must build for itself.
func TestStageCacheFollowerRetriesLeaderLimits(t *testing.T) {
	src := traceTestProgram
	mc := NewStageCache(1 << 20)
	release := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := mc.Do(context.Background(), "src:"+memo.SourceDigest(src).Key(), func() (memo.Entry, error) {
			<-release
			return nil, &ResourceError{Resource: "unrolled rendezvous nodes", Limit: 1, Actual: 99}
		})
		leader <- err
	}()
	for mc.Stats().Misses < 1 {
		runtime.Gosched()
	}
	type result struct {
		rep *Report
		err error
	}
	follower := make(chan result, 1)
	go func() {
		rep, err := AnalyzeSource(src, Options{StageCache: mc})
		follower <- result{rep, err}
	}()
	for mc.Stats().Misses < 2 {
		runtime.Gosched()
	}
	close(release)
	if err := <-leader; err == nil {
		t.Fatal("leader flight did not fail")
	}
	got := <-follower
	if got.err != nil {
		t.Fatalf("follower inherited the leader's refusal: %v", got.err)
	}
	ref, err := AnalyzeSource(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.rep.JSONReport(), ref.JSONReport()) {
		t.Fatal("follower's report differs from an uncached run")
	}
}

// TestEntryPointsRunSameStages pins one stage sequence for every entry
// point: uncached AnalyzeSource records the same depth-1 spans as a cold
// run through a fresh stage cache, and AnalyzeContext on the parsed
// program records the same list without the leading "parse".
func TestEntryPointsRunSameStages(t *testing.T) {
	programs := []struct {
		file string
		fifo bool
	}{
		{"procedures.ada", false},
		{"loop_pipeline.ada", false},
		{"deadlock.ada", true}, // loop-free, so the FIFO stage runs
	}
	names := func(rep *Report, err error) []string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range rep.Trace.Children {
			out = append(out, c.Name)
		}
		return out
	}
	for _, prog := range programs {
		data, err := os.ReadFile(filepath.Join("testdata", prog.file))
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		for _, opt := range []Options{
			{AllAlgorithms: true, Constraint4: true, Enumerate: true},
			{Exact: true},
		} {
			opt.FIFO, opt.Trace = prog.fifo, true
			uncached := names(AnalyzeSource(src, opt))
			parsed := names(AnalyzeContext(context.Background(), MustParse(src), opt))
			opt.StageCache = NewStageCache(1 << 20)
			cold := names(AnalyzeSource(src, opt))
			if !reflect.DeepEqual(uncached, cold) {
				t.Errorf("%s: uncached stages %v, cold cached %v", prog.file, uncached, cold)
			}
			if len(uncached) == 0 || uncached[0] != "parse" || !reflect.DeepEqual(parsed, uncached[1:]) {
				t.Errorf("%s: AnalyzeSource stages %v, AnalyzeContext %v", prog.file, uncached, parsed)
			}
		}
	}
}

// BenchmarkStageCacheWarmSecondAlgorithm measures the tentpole win: asking
// a new algorithm about an already-analyzed source. cold runs the full
// pipeline — parse, unroll, sync graph, CLG and ordering tables, stall
// balance, then the sweep; warm reuses every cached artifact and executes
// only the new detector sweep. The warm path is expected to be >= 5x
// faster; scripts/bench_diff.sh gates each half against the base build.
func BenchmarkStageCacheWarmSecondAlgorithm(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	cfg := workload.DefaultConfig()
	cfg.Tasks = 8
	cfg.StmtsPerTask = 6
	cfg.LoopProb = 0.3
	src := workload.Random(rng, cfg).String()

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AnalyzeSource(src, Options{Algorithm: AlgoNaive}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		// Prime once with a different algorithm, as a first request would:
		// its sweep caches nothing the timed naive sweep can reuse. Each
		// iteration copies the shared-prefix entries into a fresh cache, so
		// the timed call builds exactly the naive verdict and hits the rest.
		primed := NewStageCache(64 << 20)
		if _, err := AnalyzeSource(src, Options{StageCache: primed, Algorithm: AlgoRefined}); err != nil {
			b.Fatal(err)
		}
		dk := memo.SourceDigest(src).Key()
		var shared []memo.Entry
		keys := []string{"src:" + dk, "an:" + dk + ":f0", "st:" + dk}
		for _, k := range keys {
			e, ok := primed.Get(k)
			if !ok {
				b.Fatalf("primed cache has no %q entry", k[:3])
			}
			shared = append(shared, e)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			mc := NewStageCache(64 << 20)
			for j, k := range keys {
				mc.Put(k, shared[j])
			}
			b.StartTimer()
			if _, err := AnalyzeSource(src, Options{StageCache: mc, Algorithm: AlgoNaive}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
