package order

import (
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/graph"
	"repro/internal/lang"
	"repro/internal/sg"
	"repro/internal/workload"
)

// refInfo is the historical [][]bool representation of the ordering
// relations, kept test-only as the reference the bitset data plane is
// pinned against.
type refInfo struct {
	Precede   [][]bool
	NoCohead  [][]bool
	NotCoexec [][]bool
	CoAccept  [][]int
	LoopFree  bool
}

// computeReference is the pre-bitset Compute, element-by-element loops
// and all. Any change to Compute's derivation rules must be mirrored
// here, or TestBitsetMatchesReference will fail.
func computeReference(g *sg.Graph) *refInfo {
	n := g.N()
	newBoolMatrix := func(n int) [][]bool {
		m := make([][]bool, n)
		buf := make([]bool, n*n)
		for i := range m {
			m[i], buf = buf[:n], buf[n:]
		}
		return m
	}
	info := &refInfo{
		Precede:   newBoolMatrix(n),
		NoCohead:  newBoolMatrix(n),
		NotCoexec: newBoolMatrix(n),
		CoAccept:  make([][]int, n),
	}

	for _, r := range g.Nodes {
		if r.Kind != cfg.KindAccept {
			continue
		}
		for _, s := range g.Nodes {
			if s.ID != r.ID && s.Kind == cfg.KindAccept && s.Sig == r.Sig {
				info.CoAccept[r.ID] = append(info.CoAccept[r.ID], s.ID)
			}
		}
	}

	if cyc, _ := g.Control.HasCycle(); cyc {
		return info
	}
	info.LoopFree = true

	reach := g.Control.TransitiveClosure()
	idom := g.Control.Dominators(g.B)

	rendezvous := make([]int, 0, n)
	for _, nd := range g.Nodes {
		if nd.IsRendezvous() {
			rendezvous = append(rendezvous, nd.ID)
		}
	}

	for _, r := range rendezvous {
		for _, s := range rendezvous {
			if r == s || g.TaskOf[r] != g.TaskOf[s] {
				continue
			}
			if graph.Dominates(idom, g.B, r, s) {
				info.Precede[r][s] = true
			}
		}
	}

	for ti := range g.Tasks {
		nodes := g.TaskNodes(ti)
		for i, r := range nodes {
			for _, s := range nodes[i+1:] {
				if !reach[r][s] && !reach[s][r] {
					info.NotCoexec[r][s] = true
					info.NotCoexec[s][r] = true
				}
			}
		}
	}

	mu := map[int]int{}
	for _, r := range rendezvous {
		if len(g.Sync.Row(r)) != 1 {
			continue
		}
		s := g.Sync.Row(r)[0]
		if len(g.Sync.Row(s)) == 1 && g.Sync.Row(s)[0] == r {
			mu[r] = s
		}
	}

	changed := true
	for changed {
		changed = false
		for r, s := range mu {
			for _, b := range rendezvous {
				if b == r || b == s {
					continue
				}
				if info.Precede[r][b] && !info.Precede[s][b] {
					info.Precede[s][b] = true
					changed = true
				}
			}
		}
		for _, a := range rendezvous {
			for _, b := range rendezvous {
				if !info.Precede[a][b] {
					continue
				}
				for _, c := range rendezvous {
					if info.Precede[b][c] && !info.Precede[a][c] && a != c {
						info.Precede[a][c] = true
						changed = true
					}
				}
			}
		}
	}

	for _, r := range rendezvous {
		partners := g.Sync.Row(r)
		if len(partners) == 0 {
			continue
		}
		for _, t := range rendezvous {
			if t == r || info.NoCohead[r][t] {
				continue
			}
			all := true
			for _, s := range partners {
				if s == t || !info.Precede[s][t] {
					all = false
					break
				}
			}
			if all {
				info.NoCohead[r][t] = true
				info.NoCohead[t][r] = true
			}
		}
	}
	return info
}

func diffRelation(t *testing.T, name string, got interface{ Get(r, c int) bool }, want [][]bool, n int) {
	t.Helper()
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if got.Get(r, c) != want[r][c] {
				t.Fatalf("%s(%d, %d) = %v, reference says %v", name, r, c, got.Get(r, c), want[r][c])
			}
		}
	}
}

func checkAgainstReference(t *testing.T, g *sg.Graph) {
	t.Helper()
	info := Compute(g)
	ref := computeReference(g)
	if info.LoopFree != ref.LoopFree {
		t.Fatalf("LoopFree=%v reference %v", info.LoopFree, ref.LoopFree)
	}
	n := g.N()
	diffRelation(t, "Precede", info.Precede, ref.Precede, n)
	diffRelation(t, "NoCohead", info.NoCohead, ref.NoCohead, n)
	diffRelation(t, "NotCoexec", info.NotCoexec, ref.NotCoexec, n)
	for r := 0; r < n; r++ {
		if len(info.CoAccept.Row(r)) != len(ref.CoAccept[r]) {
			t.Fatalf("CoAccept[%d] = %v, reference %v", r, info.CoAccept.Row(r), ref.CoAccept[r])
		}
		for i := range ref.CoAccept[r] {
			if info.CoAccept.Row(r)[i] != ref.CoAccept[r][i] {
				t.Fatalf("CoAccept[%d] = %v, reference %v", r, info.CoAccept.Row(r), ref.CoAccept[r])
			}
		}
	}
}

// TestBitsetMatchesReference pins the word-wide bitset construction
// against the historical element-by-element one, entry for entry, on ~200
// random programs plus deterministic families.
func TestBitsetMatchesReference(t *testing.T) {
	for _, p := range []*lang.Program{
		workload.Ring(4), workload.RingBroken(5), workload.Pipeline(4, 3),
		workload.ClientServer(3), workload.Barrier(2, 2), workload.CrossRing(6, 2),
	} {
		checkAgainstReference(t, sg.MustFromProgram(p))
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		c := workload.DefaultConfig()
		c.Tasks = 2 + rng.Intn(3)
		c.StmtsPerTask = 1 + rng.Intn(4)
		c.BranchProb = 0.3
		if i%4 == 0 {
			// Loopy programs pin the LoopFree degradation path; the rest
			// go through the Lemma 1 unroll like the real pipeline does.
			c.LoopProb = 0.2
		}
		p := workload.Random(rng, c)
		if i%4 != 0 && cfg.HasLoops(p) {
			p = cfg.Unroll(p)
		}
		g, err := sg.FromProgram(p)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		checkAgainstReference(t, g)
	}
}
