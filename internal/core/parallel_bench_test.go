package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sg"
	"repro/internal/workload"
)

// Parallel hypothesis-engine benchmarks. The headline comparison is
// BenchmarkParallelSweep: RefinedPairs on workload.CrossRing(32, 2) —
// thousands of head-pair hypotheses, each an independent masked SCC
// search — swept serially and with the worker pool. On a 4-core machine
// the parallel sweep is expected to finish the same stream at >= 2x the
// serial rate (hypothesis tests dominate and share nothing); on a
// single-core machine the two converge, since the engine never trades
// verdict fidelity for speed. Every benchmark asserts the parallel
// verdict is deep-equal to the serial one before timing.
//
// Run: go test -bench=ParallelSweep -benchmem ./internal/core

func crossRingAnalyzer(b *testing.B, parallelism int) *Analyzer {
	b.Helper()
	g := sg.MustFromProgram(workload.CrossRing(32, 2))
	a := NewAnalyzer(g)
	a.Parallelism = parallelism
	return a
}

func BenchmarkParallelSweep(b *testing.B) {
	type run struct {
		name string
		do   func(a *Analyzer) Verdict
	}
	runs := []run{
		{"Refined", func(a *Analyzer) Verdict { return a.Refined() }},
		{"RefinedPairs", func(a *Analyzer) Verdict { return a.RefinedPairs() }},
		{"RefinedHeadTailPairs", func(a *Analyzer) Verdict { return a.RefinedHeadTailPairs() }},
	}
	for _, r := range runs {
		serial := crossRingAnalyzer(b, 1)
		parallel := crossRingAnalyzer(b, 0) // GOMAXPROCS workers
		want := r.do(serial)
		if got := r.do(parallel); !reflect.DeepEqual(want, got) {
			b.Fatalf("%s: parallel verdict differs from serial", r.name)
		}
		b.Run(r.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v := r.do(serial); v.MayDeadlock != want.MayDeadlock {
					b.Fatal("verdict changed")
				}
			}
		})
		b.Run(fmt.Sprintf("%s/parallel-%d", r.name, runtime.GOMAXPROCS(0)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v := r.do(parallel); v.MayDeadlock != want.MayDeadlock {
					b.Fatal("verdict changed")
				}
			}
		})
	}
}

// BenchmarkParallelSweepScaling sweeps the worker count on the pair
// stream, for plotting speedup curves from the committed BENCH json.
func BenchmarkParallelSweepScaling(b *testing.B) {
	serial := crossRingAnalyzer(b, 1)
	want := serial.RefinedPairs()
	for _, workers := range []int{1, 2, 4, 8} {
		a := crossRingAnalyzer(b, workers)
		if got := a.RefinedPairs(); !reflect.DeepEqual(want, got) {
			b.Fatalf("workers=%d: verdict differs from serial", workers)
		}
		b.Run(fmt.Sprintf("RefinedPairs/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v := a.RefinedPairs(); v.MayDeadlock != want.MayDeadlock {
					b.Fatal("verdict changed")
				}
			}
		})
	}
}

// BenchmarkAnalyzerConstruction prices the read-only table
// materialization (heads, sequenceable/not-coexec sets, tail caches,
// bitset closure) that NewAnalyzer now performs up front.
func BenchmarkAnalyzerConstruction(b *testing.B) {
	g := sg.MustFromProgram(workload.CrossRing(32, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if a := NewAnalyzer(g); len(a.PossibleHeads()) == 0 {
			b.Fatal("no heads")
		}
	}
}
