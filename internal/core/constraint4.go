package core

import (
	"repro/internal/graph"
)

// This file implements the paper's fourth (global) deadlock condition for
// the simple pattern of Figure 3: a candidate cycle is spurious when some
// task outside the cycle is always ready to rendezvous with one of the
// cycle's head nodes and thereby break the deadlock.
//
// We certify a breaker w for head t of a cycle when:
//
//   - w's task is disjoint from every task on the cycle;
//   - w has a sync edge to t;
//   - w is the unconditional first rendezvous of its task (its only control
//     predecessor is b) and lies on every control path of its task (no
//     b-to-e path in the task avoids w);
//   - every sync partner of w is either t itself or a node that must
//     execute after t (Precede[t][partner]).
//
// Under those conditions any wave containing the cycle's heads must have
// w's task positioned exactly at w — it cannot be past w, because passing w
// requires a rendezvous with t (stuck) or with a node that executes only
// after t — and w can then rendezvous with t, so the wave is not anomalous.

// CycleInfo is one simple CLG cycle mapped back to sync-graph terms.
type CycleInfo struct {
	// Nodes are the sync-graph node ids on the cycle, in cycle order.
	Nodes []int
	// Heads are the nodes entered through a sync edge (the wave members a
	// deadlock would strand); Tails are the nodes whose sync edge carries
	// the cycle out of their task.
	Heads []int
	Tails []int
}

// DefaultEnumerateLimit is the cycle budget a limit of 0 (or less) means
// to EnumerateCycles, Enumerate and Constraint4Certify.
const DefaultEnumerateLimit = 4096

// EnumerateCycles lists the simple cycles of the CLG, mapped to sync-graph
// node ids, up to limit cycles (0 means DefaultEnumerateLimit). The
// boolean result reports whether enumeration was exhaustive; when false,
// certification by constraint 4 must be declined.
func (a *Analyzer) EnumerateCycles(limit int) ([]CycleInfo, bool) {
	return a.EnumerateCyclesRestricted(limit, nil)
}

// EnumerateCyclesRestricted is EnumerateCycles over the subgraph induced
// by the sync-graph nodes for which allowed returns true (nil allows
// everything). The Theorem 2 checker uses it to confine the search to
// literal tasks, mirroring the paper's argument that valid deadlock cycles
// in the gadget involve only the sync edges between literal tasks.
func (a *Analyzer) EnumerateCyclesRestricted(limit int, allowed func(sgNode int) bool) ([]CycleInfo, bool) {
	if limit <= 0 {
		limit = DefaultEnumerateLimit
	}
	c := a.CLG
	g := &c.G
	if allowed != nil {
		var edges [][2]int
		for u := 0; u < g.N(); u++ {
			if !allowed(c.Orig[u]) {
				continue
			}
			for _, v := range g.Succ(u) {
				if allowed(c.Orig[v]) {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g = graph.FromEdges(g.N(), edges)
	}
	comp, _ := g.SCC()

	var cycles []CycleInfo
	complete := true
	path := []int{}
	onPath := make([]bool, g.N())

	var dfs func(start, v int) bool
	dfs = func(start, v int) bool {
		path = append(path, v)
		onPath[v] = true
		defer func() {
			path = path[:len(path)-1]
			onPath[v] = false
		}()
		for _, w := range g.Succ(v) {
			if comp[w] != comp[start] || w < start {
				continue // stay in SCC; dedupe by smallest start node
			}
			if w == start {
				cycles = append(cycles, a.cycleInfo(path))
				if len(cycles) >= limit {
					return false
				}
				continue
			}
			if !onPath[w] {
				if !dfs(start, w) {
					return false
				}
			}
		}
		return true
	}

	sizes := graph.SCCSizes(comp, g.N()+1)
	for v := 0; v < g.N(); v++ {
		if sizes[comp[v]] < 2 {
			continue
		}
		if !dfs(v, v) {
			complete = false
			break
		}
	}
	return cycles, complete
}

// cycleInfo converts a CLG node path (a cycle, first node implicit
// successor of the last) into sync-graph nodes with head/tail roles.
func (a *Analyzer) cycleInfo(path []int) CycleInfo {
	c := a.CLG
	var ci CycleInfo
	seen := map[int]bool{}
	for i, u := range path {
		o := c.Orig[u]
		if !seen[o] {
			seen[o] = true
			ci.Nodes = append(ci.Nodes, o)
		}
		v := path[(i+1)%len(path)]
		if c.IsSyncEdge(u, v) {
			ci.Tails = append(ci.Tails, c.Orig[u])
			ci.Heads = append(ci.Heads, c.Orig[v])
		}
	}
	return ci
}

// BreakableByOutsider reports whether the cycle is always broken by a task
// outside it, per the Figure 3 pattern, returning the breaking node id
// (-1 when none qualifies).
func (a *Analyzer) BreakableByOutsider(ci CycleInfo) (int, bool) {
	g := a.SG
	cycleTasks := map[int]bool{}
	for _, n := range ci.Nodes {
		cycleTasks[g.TaskOf[n]] = true
	}
	for _, t := range ci.Heads {
		for _, w := range g.Sync.Row(t) {
			if cycleTasks[g.TaskOf[w]] {
				continue
			}
			if !a.unconditionalFirst(w) {
				continue
			}
			ok := true
			for _, p := range g.Sync.Row(w) {
				if p == t || a.Ord.Precede.Get(t, p) {
					continue
				}
				ok = false
				break
			}
			if ok {
				return w, true
			}
		}
	}
	return -1, false
}

// unconditionalFirst reports whether w is the mandatory first rendezvous
// of its task: its only control predecessor is b, and no control path of
// its task runs from b to e avoiding w.
func (a *Analyzer) unconditionalFirst(w int) bool {
	g := a.SG
	for _, p := range g.Control.Pred(w) {
		if p != g.B {
			return false
		}
	}
	if len(g.Control.Pred(w)) == 0 {
		return false
	}
	// DFS from b through w's task avoiding w; reaching e means a path
	// around w exists.
	ti := g.TaskOf[w]
	stack := []int{}
	seen := map[int]bool{w: true}
	for _, s := range g.Control.Succ(g.B) {
		if s != g.E && g.TaskOf[s] == ti && s != w {
			stack = append(stack, s)
			seen[s] = true
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Control.Succ(v) {
			if s == g.E {
				return false
			}
			if g.TaskOf[s] == ti && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	// Also require that the task cannot skip straight to e from b.
	for _, first := range g.InitialNodes(ti) {
		if first == g.E {
			return false
		}
	}
	return true
}

// Constraint4Certify enumerates all simple CLG cycles and reports
// (deadlockFree, conclusive): deadlockFree is true when every cycle is
// breakable by an outside task; conclusive is false when enumeration hit
// its cap, in which case no certification is made.
func (a *Analyzer) Constraint4Certify(limit int) (deadlockFree, conclusive bool) {
	cycles, complete := a.EnumerateCycles(limit)
	if t := a.Trace; t != nil {
		t.Add("cycles_enumerated", int64(len(cycles)))
	}
	if !complete {
		return false, false
	}
	broken := 0
	defer func() {
		if t := a.Trace; t != nil {
			t.Add("cycles_broken_by_outsider", int64(broken))
		}
	}()
	for _, ci := range cycles {
		if _, ok := a.BreakableByOutsider(ci); !ok {
			return false, true
		}
		broken++
	}
	return true, true
}
