package clg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sg"
	"repro/internal/waves"
	"repro/internal/workload"
)

// Structural invariants of the CLG construction, on random programs:
//
//	|N_CLG| = 2 + 2*(|N|-2)            (b, e, and a split pair per node)
//	|E_CLG| = (|N|-2) internal edges
//	        + |E_C| transformed control edges
//	        + 2*|E_S| directed sync edges
//
// plus the sync-edge classification: exactly the 2*|E_S| edges
// Out[a]->In[b] and Out[b]->In[a] of the sync edges {a, b} are sync edges,
// so constraint 1b (sync edges enter only _i halves and leave only _o
// halves) holds by construction.
func TestQuickCLGStructure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(3)
		cfg.StmtsPerTask = 1 + rng.Intn(4)
		cfg.BranchProb = 0.3
		p := workload.Random(rng, cfg)
		g, err := sg.FromProgram(p)
		if err != nil {
			return false
		}
		c := Build(g)
		nRendezvous := g.N() - 2
		if c.N() != 2+2*nRendezvous {
			return false
		}
		wantM := nRendezvous + g.NumControlEdges() + 2*g.NumSyncEdges()
		if c.M() != wantM {
			return false
		}
		// Exactly 2*|E_S| edges are classified as sync edges, and they
		// are Out[a]->In[b] and Out[b]->In[a] for every sync edge {a, b}.
		classified := 0
		for u := 0; u < c.G.N(); u++ {
			for _, v := range c.G.Succ(u) {
				if c.IsSyncEdge(u, v) {
					classified++
					if !g.HasSyncEdge(c.Orig[u], c.Orig[v]) || u != c.Out[c.Orig[u]] || v != c.In[c.Orig[v]] {
						return false
					}
				}
			}
		}
		if classified != 2*g.NumSyncEdges() {
			return false
		}
		for a := 0; a < g.N(); a++ {
			for _, b := range g.Sync.Row(a) {
				if !c.G.HasEdge(c.Out[a], c.In[b]) || !c.IsSyncEdge(c.Out[a], c.In[b]) {
					return false
				}
			}
		}
		// Mappings are mutually consistent.
		for _, n := range g.Nodes {
			if !n.IsRendezvous() {
				continue
			}
			if c.Orig[c.In[n.ID]] != n.ID || c.Orig[c.Out[n.ID]] != n.ID {
				return false
			}
			if !c.G.HasEdge(c.Out[n.ID], c.In[n.ID]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// The naive certificate is sound by construction: an acyclic CLG implies
// no wave-derived deadlock cycle, hence a deadlock-free program. Checked
// against the exact explorer on random loop-free programs.
func TestQuickAcyclicCLGImpliesDeadlockFree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(2)
		cfg.StmtsPerTask = 1 + rng.Intn(3)
		p := workload.Random(rng, cfg)
		g, err := sg.FromProgram(p)
		if err != nil {
			return false
		}
		c := Build(g)
		if ok, _ := c.HasCycle(); ok {
			return true // nothing claimed
		}
		res := waves.Explore(g, waves.Options{MaxStates: 200000})
		if res.Truncated {
			return true
		}
		if res.Deadlock {
			t.Logf("acyclic CLG but exact deadlock:\n%s", p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
