package service

import (
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	siwa "repro"
	"repro/internal/waves"
)

func TestKeyCanonicalization(t *testing.T) {
	src := "task t is begin null; end;"
	// Zero-value limits and their explicit defaults must share an entry.
	a := Key(src, siwa.Options{Enumerate: true})
	b := Key(src, siwa.Options{Enumerate: true, EnumerateLimit: 4096})
	if a != b {
		t.Error("EnumerateLimit 0 and 4096 produced different keys")
	}
	c := Key(src, siwa.Options{Exact: true})
	d := Key(src, siwa.Options{Exact: true, ExactOptions: waves.Options{MaxStates: 1 << 20}})
	if c != d {
		t.Error("MaxStates 0 and 1<<20 produced different keys")
	}
	// Traces never keys: the service pins it off.
	e := Key(src, siwa.Options{Exact: true, ExactOptions: waves.Options{Traces: true}})
	if c != e {
		t.Error("Traces flag leaked into the content address")
	}
	// Everything that changes the report must change the key.
	distinct := map[CacheKey]string{a: "enum", c: "exact"}
	for name, opt := range map[string]siwa.Options{
		"algo":      {Algorithm: siwa.AlgoRefined},
		"all":       {AllAlgorithms: true},
		"c4":        {Constraint4: true},
		"fifo":      {FIFO: true},
		"enumLimit": {Enumerate: true, EnumerateLimit: 7},
		"maxStates": {Exact: true, ExactOptions: waves.Options{MaxStates: 99}},
	} {
		k := Key(src, opt)
		if prev, dup := distinct[k]; dup {
			t.Errorf("options %q and %q collided", name, prev)
		}
		distinct[k] = name
	}
	if k := Key(src+" ", siwa.Options{}); k == Key(src, siwa.Options{}) {
		t.Error("source change did not change the key")
	}
}

// TestKeyIgnoresExecutionKnobs pins the canonicalization contract: options
// that change how an analysis runs — but never what it reports — must not
// fragment the result cache. A replica restarted with a different
// -parallelism, or a request that merely opted into tracing, still shares
// entries with everyone else analyzing the same source.
func TestKeyIgnoresExecutionKnobs(t *testing.T) {
	src := "task t is begin null; end;"
	base := Key(src, siwa.Options{AllAlgorithms: true})
	for name, opt := range map[string]siwa.Options{
		"parallelism": {AllAlgorithms: true, Parallelism: 8},
		"serial":      {AllAlgorithms: true, Parallelism: 1},
		"trace":       {AllAlgorithms: true, Trace: true},
		"limits":      {AllAlgorithms: true, Limits: siwa.Limits{MaxTasks: 7}},
		"degrade":     {AllAlgorithms: true, Degrade: true},
		"stageCache":  {AllAlgorithms: true, StageCache: siwa.NewStageCache(1 << 20)},
	} {
		if k := Key(src, opt); k != base {
			t.Errorf("execution knob %q leaked into the cache key", name)
		}
	}
}

// TestKeyHeaderFormat pins the hashed bytes against their fmt rendering,
// so keys stay what they were before Key stopped using fmt.
func TestKeyHeaderFormat(t *testing.T) {
	ref := func(source string, opt siwa.Options) CacheKey {
		opt = canonicalize(opt)
		h := sha256.New()
		fmt.Fprintf(h, "siwa-report-v%d\x00algo=%d;all=%t;c4=%t;enum=%t;enumLimit=%d;fifo=%t;exact=%t;maxStates=%d;maxAnomalies=%d;loopLimit=%d\x00",
			siwa.SchemaVersion, opt.Algorithm, opt.AllAlgorithms, opt.Constraint4,
			opt.Enumerate, opt.EnumerateLimit, opt.FIFO, opt.Exact,
			opt.ExactOptions.MaxStates, opt.ExactOptions.MaxAnomalies,
			opt.ExactOptions.LoopExpansionLimit)
		io.WriteString(h, source)
		var k CacheKey
		h.Sum(k[:0])
		return k
	}
	long := strings.Repeat("task t is begin null; end;\n", 200)
	for _, src := range []string{"", "task t is begin null; end;", long} {
		for _, opt := range []siwa.Options{
			{},
			{Algorithm: siwa.AlgoRefinedHeadTailPairs, AllAlgorithms: true, Constraint4: true, FIFO: true},
			{Enumerate: true, EnumerateLimit: 7, Exact: true,
				ExactOptions: waves.Options{MaxStates: 99, MaxAnomalies: 3, LoopExpansionLimit: 5}},
		} {
			if got, want := Key(src, opt), ref(src, opt); got != want {
				t.Errorf("Key(%d-byte source, %+v) = %s, want %s", len(src), opt, got, want)
			}
		}
	}
}

func TestKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	src := strings.Repeat("task t is begin null; end;\n", 100)
	opt := siwa.Options{Algorithm: siwa.AlgoRefinedPairs}
	Key(src, opt) // warm the buffer pool
	if avg := testing.AllocsPerRun(100, func() { Key(src, opt) }); avg > 0 {
		t.Errorf("Key allocates %.1f objects per call, want 0", avg)
	}
}
