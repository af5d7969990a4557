package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	for _, g := range []*Digraph{FromEdges(0, nil), {}} {
		if g.N() != 0 || g.M() != 0 {
			t.Fatalf("empty graph has n=%d m=%d", g.N(), g.M())
		}
		if ok, _ := g.HasCycle(); ok {
			t.Fatal("empty graph reported cyclic")
		}
	}
}

func TestFromEdgesPredecessors(t *testing.T) {
	g := FromEdges(6, [][2]int{{3, 5}})
	if g.N() != 6 {
		t.Fatalf("N=%d, want 6", g.N())
	}
	if !g.HasEdge(3, 5) || g.HasEdge(5, 3) {
		t.Fatal("edge direction wrong")
	}
	if len(g.Pred(5)) != 1 || g.Pred(5)[0] != 3 {
		t.Fatalf("pred(5)=%v", g.Pred(5))
	}
}

func TestFromEdgesDropsDuplicates(t *testing.T) {
	g := FromEdges(2, [][2]int{{0, 1}, {0, 1}})
	if g.M() != 1 || len(g.Pred(1)) != 1 {
		t.Fatalf("M=%d pred(1)=%v, want one edge", g.M(), g.Pred(1))
	}
}

// FromEdges builds exactly the graph that adding the edges one at a time,
// skipping duplicates, builds: every successor row in insertion order,
// every predecessor row holding the same sources (ascending), each row
// capped at its degree. FromEdgesIn uses the front of its slab and hands
// back the room the duplicates would have taken.
func TestQuickFromEdgesMatchesAddEdgeUnique(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(48)
		edges := make([][2]int, rng.Intn(3*n))
		for i := range edges {
			edges[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		succ, pred := make([][]int, n), make([][]int, n)
		m := 0
		for _, e := range edges {
			if !contains(succ[e[0]], e[1]) {
				succ[e[0]] = append(succ[e[0]], e[1])
				pred[e[1]] = append(pred[e[1]], e[0])
				m++
			}
		}
		slab := make([]int, DigraphLen(n, len(edges))+3)
		got, rest := FromEdgesIn(slab, n, edges)
		if got.N() != n || got.M() != m || len(rest) != 3+2*(len(edges)-m) {
			t.Logf("FromEdgesIn(%d, %v): n=%d m=%d rest=%d", n, edges, got.N(), got.M(), len(rest))
			return false
		}
		for v := 0; v < n; v++ {
			gs, gp := got.Succ(v), got.Pred(v)
			if !reflect.DeepEqual(append([]int{}, gs...), append([]int{}, succ[v]...)) ||
				!reflect.DeepEqual(append([]int{}, gp...), append([]int{}, Sorted(pred[v])...)) {
				t.Logf("FromEdges(%d, %v): node %d succ %v pred %v, want %v %v", n, edges, v, gs, gp, succ[v], pred[v])
				return false
			}
			if cap(gs) != len(gs) || cap(gp) != len(gp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHasCycleOnDAG(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if ok, _ := g.HasCycle(); ok {
		t.Fatal("DAG reported cyclic")
	}
	order, err := g.Topo()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	if pos[0] > pos[1] || pos[1] > pos[3] || pos[0] > pos[2] || pos[2] > pos[3] {
		t.Fatalf("topo order %v violates edges", order)
	}
}

func TestHasCycleFindsWitness(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}})
	ok, cyc := g.HasCycle()
	if !ok {
		t.Fatal("cycle not found")
	}
	if len(cyc) < 4 || cyc[0] != cyc[len(cyc)-1] {
		t.Fatalf("witness %v is not a closed walk", cyc)
	}
	for i := 0; i+1 < len(cyc); i++ {
		if !g.HasEdge(cyc[i], cyc[i+1]) {
			t.Fatalf("witness %v uses nonexistent edge %d->%d", cyc, cyc[i], cyc[i+1])
		}
	}
}

func TestSelfLoopIsCycle(t *testing.T) {
	g := FromEdges(1, [][2]int{{0, 0}})
	if ok, _ := g.HasCycle(); !ok {
		t.Fatal("self loop not detected")
	}
	if _, err := g.Topo(); err == nil {
		t.Fatal("topo on cyclic graph should fail")
	}
}

func TestSCCTwoComponents(t *testing.T) {
	// Component {0,1,2}, component {3,4}, singleton {5}.
	g := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 3}, {4, 5}})
	comp, n := g.SCC()
	if n != 3 {
		t.Fatalf("ncomp=%d, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("0,1,2 split: %v", comp)
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Fatalf("3,4 wrong: %v", comp)
	}
	if comp[5] == comp[3] || comp[5] == comp[0] {
		t.Fatalf("5 merged: %v", comp)
	}
	sizes := SCCSizes(comp, n)
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 6 {
		t.Fatalf("sizes %v do not cover graph", sizes)
	}
}

func TestSCCReverseTopoOrder(t *testing.T) {
	// Tarjan emits components in reverse topological order of the
	// condensation: a component appears before components that reach it.
	g := FromEdges(4, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}})
	comp, _ := g.SCC()
	if comp[2] >= comp[0] {
		t.Fatalf("sink component should have smaller id: %v", comp)
	}
}

func TestReachableFrom(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	r := g.ReachableFrom(0)
	want := []bool{true, true, true, false, false}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("reach[%d]=%v, want %v", i, r[i], want[i])
		}
	}
	r2 := g.ReachableFrom(0, 3)
	if !r2[4] || !r2[2] {
		t.Fatal("multi-root reachability wrong")
	}
	if !g.HasPath(0, 2) || g.HasPath(2, 0) {
		t.Fatal("HasPath wrong")
	}
	if !g.HasPath(2, 2) {
		t.Fatal("node must reach itself")
	}
}

func TestDominatorsDiamond(t *testing.T) {
	// 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 4.
	g := FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}})
	idom := g.Dominators(0)
	if idom[3] != 0 {
		t.Fatalf("idom[3]=%d, want 0 (join point)", idom[3])
	}
	if idom[4] != 3 {
		t.Fatalf("idom[4]=%d, want 3", idom[4])
	}
	if !Dominates(idom, 0, 0, 4) || !Dominates(idom, 0, 3, 4) {
		t.Fatal("expected dominance missing")
	}
	if Dominates(idom, 0, 1, 3) {
		t.Fatal("1 must not dominate join 3")
	}
	if !Dominates(idom, 0, 2, 2) {
		t.Fatal("node must dominate itself")
	}
}

func TestDominatorsUnreachable(t *testing.T) {
	// 2 unreachable.
	g := FromEdges(3, [][2]int{{0, 1}})
	idom := g.Dominators(0)
	if idom[2] != -1 {
		t.Fatalf("unreachable node got idom %d", idom[2])
	}
	if Dominates(idom, 0, 0, 2) {
		t.Fatal("nothing dominates an unreachable node")
	}
}

func TestDominatorsLoop(t *testing.T) {
	// 0 -> 1 -> 2 -> 1 (loop), 2 -> 3.
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 1}, {2, 3}})
	idom := g.Dominators(0)
	if idom[1] != 0 || idom[2] != 1 || idom[3] != 2 {
		t.Fatalf("idom=%v", idom)
	}
}

func TestReverse(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	r := g.Reverse()
	if !r.HasEdge(1, 0) || !r.HasEdge(2, 1) || r.HasEdge(0, 1) {
		t.Fatal("reverse wrong")
	}
}

func TestTransitiveClosure(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}})
	reach := g.TransitiveClosure()
	if !reach[0][2] || reach[2][0] || !reach[3][3] {
		t.Fatal("closure wrong")
	}
}

// randomDAG builds a random DAG with edges only from lower to higher ids.
func randomDAG(rng *rand.Rand, n int, p float64) *Digraph {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return FromEdges(n, edges)
}

func TestQuickDAGsAreAcyclic(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(20), 0.3)
		if ok, _ := g.HasCycle(); ok {
			return false
		}
		// Every SCC of a DAG is a singleton.
		comp, n := g.SCC()
		if n != g.N() {
			return false
		}
		for _, s := range SCCSizes(comp, n) {
			if s != 1 {
				return false
			}
		}
		_, err := g.Topo()
		return err == nil
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCycleDetectionAgreesWithSCC(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		edges := make([][2]int, rng.Intn(3*n))
		selfLoop := false
		for i := range edges {
			u, v := rng.Intn(n), rng.Intn(n)
			edges[i] = [2]int{u, v}
			if u == v {
				selfLoop = true
			}
		}
		g := FromEdges(n, edges)
		hasCycle, _ := g.HasCycle()
		comp, nc := g.SCC()
		nontrivial := selfLoop
		for _, s := range SCCSizes(comp, nc) {
			if s > 1 {
				nontrivial = true
			}
		}
		return hasCycle == nontrivial
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDominatorsSoundOnRandomFlowgraphs(t *testing.T) {
	// Check Dominates against the definition: a dominates b iff removing a
	// makes b unreachable from the entry.
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		// Guarantee reachability skeleton then add noise.
		var edges [][2]int
		for v := 1; v < n; v++ {
			edges = append(edges, [2]int{rng.Intn(v), v})
		}
		for i := 0; i < n; i++ {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		g := FromEdges(n, edges)
		idom := g.Dominators(0)
		for a := 1; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				// Reachability avoiding a.
				seen := make([]bool, n)
				seen[a] = true // block
				stack := []int{0}
				if a != 0 {
					seen[0] = true
				}
				for len(stack) > 0 {
					v := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if v == a {
						continue
					}
					for _, w := range g.Succ(v) {
						if !seen[w] {
							seen[w] = true
							stack = append(stack, w)
						}
					}
				}
				defDom := !seen[b] // b unreachable without a
				if Dominates(idom, 0, a, b) != defDom {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
