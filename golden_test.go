package siwa

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/workload"
)

// goldenReportDigest is the SHA-256 of every report the golden corpus
// renders, concatenated in run order. It pins the served verdict bytes,
// witness order included: the naive detector lists its witnesses in the
// strong-component order of the CLG, so a graph builder that reordered
// one adjacency row would change these bytes while every verdict stayed
// the same.
const goldenReportDigest = "b262b5c1ef98ca7220b8d314e9c7407bbec80e2c3f775f5f74cb0af8fa08f16b"

// goldenFamilies draws programs from every internal/workload family at
// the sizes the benchmark serves, plus loop-free Random programs so the
// FIFO refinement (skipped on loops) sees branching input.
var goldenFamilies = []struct {
	name string
	gen  func(rng *rand.Rand) *Program
}{
	{"pipeline", func(r *rand.Rand) *Program { return workload.Pipeline(3+r.Intn(3), 1+r.Intn(3)) }},
	{"client-server", func(r *rand.Rand) *Program { return workload.ClientServer(2 + r.Intn(4)) }},
	{"barrier", func(r *rand.Rand) *Program { return workload.Barrier(2+r.Intn(2), 1+r.Intn(2)) }},
	{"ring", func(r *rand.Rand) *Program { return workload.Ring(3 + r.Intn(4)) }},
	{"ring-broken", func(r *rand.Rand) *Program { return workload.RingBroken(3 + r.Intn(4)) }},
	{"crossring", func(r *rand.Rand) *Program { return workload.CrossRing(3+r.Intn(3), 1+r.Intn(2)) }},
	{"nested", func(r *rand.Rand) *Program { return workload.NestedLoops(1+r.Intn(2), 2+r.Intn(2)) }},
	{"forkfan", func(r *rand.Rand) *Program { return workload.ForkFan(2+r.Intn(2), 1+r.Intn(2)) }},
	{"random", func(r *rand.Rand) *Program {
		return workload.Random(r, workload.Config{
			Tasks: 3 + r.Intn(2), StmtsPerTask: 3, Msgs: 2,
			BranchProb: 0.2, LoopProb: 0.15, MaxDepth: 2, AcceptRatio: 0.5,
		})
	}},
	{"random-loop-free", func(r *rand.Rand) *Program {
		return workload.Random(r, workload.Config{
			Tasks: 2 + r.Intn(3), StmtsPerTask: 2 + r.Intn(3), Msgs: 2,
			BranchProb: 0.3, MaxDepth: 2, AcceptRatio: 0.5,
		})
	}},
}

// TestVerdictBytesGolden renders 240 seeded programs, 24 from each of
// goldenFamilies, under every algorithm, under AllAlgorithms with
// Enumerate and Constraint4, and with the FIFO refinement on the
// loop-free ones, and compares the digest of the JSON bytes against
// goldenReportDigest. The committed digest is the reference for every
// path through the pipeline: the corpus is rendered without a stage
// cache, then through one shared cache cold, then again warm, and each
// pass must hash to the same bytes.
func TestVerdictBytesGolden(t *testing.T) {
	const perFamily = 24
	var runs []Options
	for _, info := range AlgorithmList() {
		runs = append(runs, Options{Algorithm: info.Algorithm})
	}
	runs = append(runs, Options{Algorithm: AlgoRefined, AllAlgorithms: true, Enumerate: true, Constraint4: true})
	fifo := Options{Algorithm: AlgoRefinedPairs, FIFO: true}

	mc := NewStageCache(64 << 20)
	for _, pass := range []struct {
		name  string
		cache *StageCache
	}{{"uncached", nil}, {"cold", mc}, {"warm", mc}} {
		h := sha256.New()
		reports := 0
		for fi, fam := range goldenFamilies {
			rng := rand.New(rand.NewSource(int64(500 + fi)))
			for i := 0; i < perFamily; i++ {
				p := fam.gen(rng)
				src := p.String()
				opts := runs
				if !cfg.HasLoops(p) {
					opts = append(opts[:len(opts):len(opts)], fifo)
				}
				for _, opt := range opts {
					opt.StageCache = pass.cache
					rep, err := AnalyzeSource(src, opt)
					if err != nil {
						t.Fatalf("%s: %s #%d: %v", pass.name, fam.name, i, err)
					}
					b, err := json.Marshal(rep.JSONReport())
					if err != nil {
						t.Fatal(err)
					}
					h.Write(b)
					reports++
				}
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenReportDigest {
			t.Fatalf("%s: digest of %d reports = %s, want %s", pass.name, reports, got, goldenReportDigest)
		}
	}
	if st := mc.Stats(); st.Evictions != 0 {
		t.Fatalf("the warm pass was not fully warm: %+v", st)
	}
}
