package siwa

import (
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/sg"
)

// TestColdPathAllocs pins the allocation counts of the two cold-path
// builders on one program per goldenFamilies family: the front end
// (sg.FromProgram: per-task CFGs, then the sync graph) and analyzer
// construction (core.NewAnalyzer: CLG, ordering facts and hypothesis
// tables). Both carve their tables from counted slabs, so the counts grow
// with the number of tasks, not with the number of nodes or edges.
// Measured on these programs: FromProgram 4-8 plus 12 per task,
// NewAnalyzer 16-21; the bounds keep the earlier, wider margin.
func TestColdPathAllocs(t *testing.T) {
	const maxAnalyzerAllocs = 36
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	for fi, fam := range goldenFamilies {
		p := fam.gen(rand.New(rand.NewSource(int64(fi))))
		if cfg.HasLoops(p) {
			p = cfg.Unroll(p)
		}
		g := sg.MustFromProgram(p)
		front := testing.AllocsPerRun(20, func() { sg.MustFromProgram(p) })
		if bound := float64(26 + 12*len(g.Tasks)); front > bound {
			t.Errorf("%s (%d tasks, %d nodes): sg.FromProgram makes %.0f allocations, want <= %.0f",
				fam.name, len(g.Tasks), g.N(), front, bound)
		}
		analyzer := testing.AllocsPerRun(20, func() { core.NewAnalyzer(g) })
		if analyzer > maxAnalyzerAllocs {
			t.Errorf("%s (%d nodes): core.NewAnalyzer makes %.0f allocations, want <= %d",
				fam.name, g.N(), analyzer, maxAnalyzerAllocs)
		}
	}
}
