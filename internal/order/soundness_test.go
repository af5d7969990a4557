package order

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sg"
	"repro/internal/waves"
	"repro/internal/workload"
)

// The strong relation's defining property: Precede(x, y) means no
// execution reaches y while x has not yet finished. Verified against
// exhaustive enumeration of all executions (every rendezvous interleaving
// and branch choice) on random loop-free programs.
func TestQuickPrecedeSoundAgainstAllExecutions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(2)
		cfg.StmtsPerTask = 1 + rng.Intn(3)
		cfg.BranchProb = 0.3
		p := workload.Random(rng, cfg)
		g, err := sg.FromProgram(p)
		if err != nil {
			return false
		}
		info := Compute(g)
		violations := findPrecedeViolations(g, info)
		if len(violations) > 0 {
			v := violations[0]
			t.Logf("UNSOUND: Precede(%s, %s) but %s reached before %s finished in\n%s",
				&g.Nodes[v[0]], &g.Nodes[v[1]], &g.Nodes[v[1]], &g.Nodes[v[0]], p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// findPrecedeViolations walks every execution path; at each state, every
// live wave node y must have all its Precede-predecessors already
// executed.
func findPrecedeViolations(g *sg.Graph, info *Info) [][2]int {
	var violations [][2]int
	seenViolation := map[[2]int]bool{}
	nt := len(g.Tasks)

	executed := map[int]bool{}
	wave := make([]int, nt)

	check := func() {
		for _, y := range wave {
			if y == g.E {
				continue
			}
			for x := 0; x < g.N(); x++ {
				if info.Precede.Get(x, y) && !executed[x] {
					k := [2]int{x, y}
					if !seenViolation[k] {
						seenViolation[k] = true
						violations = append(violations, k)
					}
				}
			}
		}
	}

	var step func()
	step = func() {
		check()
		for u := 0; u < nt; u++ {
			if wave[u] == g.E {
				continue
			}
			for v := u + 1; v < nt; v++ {
				if wave[v] == g.E || !g.HasSyncEdge(wave[u], wave[v]) {
					continue
				}
				ru, rv := wave[u], wave[v]
				executed[ru], executed[rv] = true, true
				for _, nu := range g.Control.Succ(ru) {
					for _, nv := range g.Control.Succ(rv) {
						wave[u], wave[v] = nu, nv
						step()
					}
				}
				wave[u], wave[v] = ru, rv
				delete(executed, ru)
				delete(executed, rv)
			}
		}
	}

	var gen func(ti int)
	gen = func(ti int) {
		if ti == nt {
			step()
			return
		}
		for _, v := range g.InitialNodes(ti) {
			wave[ti] = v
			gen(ti + 1)
		}
	}
	gen(0)
	return violations
}

// Precede must be irreflexive and transitive (a strict pre-order; note it
// is NOT antisymmetric in general, because orderings between two nodes
// that never both run are vacuously derivable in both directions).
func TestQuickPrecedeStrictPreorder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(3)
		cfg.StmtsPerTask = 2 + rng.Intn(3)
		p := workload.Random(rng, cfg)
		g, err := sg.FromProgram(p)
		if err != nil {
			return false
		}
		info := Compute(g)
		n := g.N()
		for a := 0; a < n; a++ {
			if info.Precede.Get(a, a) {
				return false
			}
			for b := 0; b < n; b++ {
				if !info.Precede.Get(a, b) {
					continue
				}
				for c := 0; c < n; c++ {
					if info.Precede.Get(b, c) && a != c && !info.Precede.Get(a, c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// NoCohead's defining property: two nodes marked NoCohead never wait on
// the same wave while both are deadlock-head candidates. We verify the
// stronger observable: they are never both live wave members with neither
// stalled... conservatively, check the exact claim used by the detectors:
// on every reachable stuck wave whose coupling digraph has a cycle, no
// two cycle members are NoCohead.
func TestQuickNoCoheadSoundOnDeadlockWaves(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(2)
		cfg.StmtsPerTask = 2 + rng.Intn(3)
		p := workload.Random(rng, cfg)
		g, err := sg.FromProgram(p)
		if err != nil {
			return false
		}
		info := Compute(g)
		res := exploreDeadlockSets(g)
		for _, set := range res {
			for i, x := range set {
				for _, y := range set[i+1:] {
					if info.NoCohead.Get(x, y) {
						t.Logf("UNSOUND: NoCohead(%s, %s) on a real deadlock wave in\n%s",
							&g.Nodes[x], &g.Nodes[y], p)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// exploreDeadlockSets reuses the waves explorer to fetch the deadlock
// sets of every anomalous wave.
func exploreDeadlockSets(g *sg.Graph) [][]int {
	// Local import cycle avoidance: the waves package imports nothing
	// from order, so we can use it directly.
	res := exploreWaves(g)
	return res
}

func exploreWaves(g *sg.Graph) [][]int {
	res := waves.Explore(g, waves.Options{MaxAnomalies: 256})
	var sets [][]int
	for _, a := range res.Anomalies {
		if len(a.DeadlockSet) > 1 {
			sets = append(sets, a.DeadlockSet)
		}
	}
	return sets
}
