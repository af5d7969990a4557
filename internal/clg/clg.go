// Package clg implements the cycle location graph (paper §3.1): a
// transformed sync graph in which every rendezvous node r is split into an
// incoming half r_i (all sync edges arrive here) and an outgoing half r_o
// (all sync edges leave here), connected r_o -> r_i. The split enforces
// deadlock constraint 1b structurally: a node entered through a sync edge
// can only be left through a control-flow edge, so every directed cycle in
// the CLG traverses at least one control edge inside each task it visits.
//
// The naive deadlock detection algorithm is then simply: the program may
// deadlock only if its CLG has a directed cycle (for loop-free programs,
// obtained via cfg.Unroll when necessary).
package clg

import (
	"fmt"
	"strings"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sg"
)

// CLG is a cycle location graph derived from a sync graph.
type CLG struct {
	SG *sg.Graph
	G  *graph.Digraph
	B  int
	E  int

	// In and Out map sync-graph node ids to their split CLG halves.
	// For b and e both map to the single unsplit node.
	In  []int
	Out []int
	// Orig maps CLG node ids back to sync-graph node ids.
	Orig []int
	// IsIn marks CLG nodes that are incoming halves.
	IsIn []bool
}

// Build constructs the CLG of a sync graph by the paper's six steps. The
// node tables are sized from the sync graph's counts and the edges are
// collected into one list for graph.FromEdges.
func Build(s *sg.Graph) *CLG {
	c, _ := build(s)
	return c
}

// build is Build also returning the number of CLG edges derived from
// sync edges.
func build(s *sg.Graph) (*CLG, int) {
	nr := s.NumRendezvous()
	n := 2 + 2*nr
	ints := make([]int, 2*s.N()+n)
	c := &CLG{
		SG:   s,
		In:   ints[:s.N():s.N()],
		Out:  ints[s.N() : 2*s.N() : 2*s.N()],
		Orig: ints[2*s.N():],
		IsIn: make([]bool, n),
	}
	edges := make([][2]int, 0, nr+s.NumControlEdges()+2*s.NumSyncEdges())

	// Steps 1-3: distinguished nodes, split pairs, internal edges.
	c.B, c.E = 0, 1
	c.Orig[c.B], c.Orig[c.E] = s.B, s.E
	c.In[s.B], c.Out[s.B] = c.B, c.B
	c.In[s.E], c.Out[s.E] = c.E, c.E
	id := 2
	for _, nd := range s.Nodes {
		if !nd.IsRendezvous() {
			continue
		}
		ri, ro := id, id+1
		id += 2
		c.Orig[ri], c.Orig[ro] = nd.ID, nd.ID
		c.IsIn[ri] = true
		c.In[nd.ID], c.Out[nd.ID] = ri, ro
		edges = append(edges, [2]int{ro, ri})
	}

	// Steps 4-5: control edges.
	for u := 0; u < s.Control.N(); u++ {
		for _, v := range s.Control.Succ(u) {
			switch {
			case u == s.B && v == s.E:
				edges = append(edges, [2]int{c.B, c.E})
			case u == s.B:
				edges = append(edges, [2]int{c.B, c.Out[v]})
			case v == s.E:
				edges = append(edges, [2]int{c.In[u], c.E})
			default:
				edges = append(edges, [2]int{c.In[u], c.Out[v]})
			}
		}
	}

	// Step 6: sync edges, both directions.
	for u, adj := range s.Sync {
		for _, v := range adj {
			if u < v {
				edges = append(edges, [2]int{c.Out[u], c.In[v]}, [2]int{c.Out[v], c.In[u]})
			}
		}
	}
	c.G = graph.FromEdges(n, edges)
	// The first two steps' edges are distinct by construction (one
	// internal edge per node; control edges map injectively), so the
	// rest of the graph's edges derive from sync edges.
	return c, c.G.M() - nr - s.Control.M()
}

// BuildTraced is Build recording the constructed graph's size — CLG
// nodes, total edges, and sync-derived edges — into span (nil records
// nothing). The pipeline uses it so the CLG stage span carries the inputs
// each masked SCC run operates on.
func BuildTraced(s *sg.Graph, span *obs.Span) *CLG {
	c, syncEdges := build(s)
	if span != nil {
		span.Add("clg_nodes", int64(c.G.N()))
		span.Add("clg_edges", int64(c.G.M()))
		span.Add("clg_sync_edges", int64(syncEdges))
	}
	return c
}

// IsSyncEdge reports whether the CLG edge u->v derives from a sync edge.
// The split decides it: control edges leave an incoming half (or b) and
// enter an outgoing half (or e), and the internal edge joins one node's
// own halves, so the sync edges are exactly the edges that enter another
// node's incoming half from a half that is not incoming. The rule is
// exact on CLG edges; it says nothing about pairs that are not edges.
func (c *CLG) IsSyncEdge(u, v int) bool {
	return c.IsIn[v] && !c.IsIn[u] && c.Orig[u] != c.Orig[v]
}

// N returns the CLG node count.
func (c *CLG) N() int { return c.G.N() }

// SizeBytes approximates the CLG's resident footprint, for byte-budgeted
// caches: the digraph's adjacency and the node maps at their capacities.
func (c *CLG) SizeBytes() int64 {
	sz := int64(unsafe.Sizeof(*c)) + c.G.SizeBytes()
	return sz + int64(cap(c.In)+cap(c.Out)+cap(c.Orig))*8 + int64(cap(c.IsIn))
}

// M returns the CLG edge count.
func (c *CLG) M() int { return c.G.M() }

// HasCycle reports whether the CLG has any directed cycle and returns a
// witness as sync-graph node ids (deduplicated, first repeated last).
// This is the naive deadlock detector: acyclic CLG proves deadlock freedom
// for loop-free programs (constraints 1a and 1b hold on any cycle found).
func (c *CLG) HasCycle() (bool, []int) {
	ok, cyc := c.G.HasCycle()
	if !ok {
		return false, nil
	}
	return true, c.toSyncNodes(cyc)
}

// toSyncNodes maps a CLG node sequence back to sync-graph node ids,
// collapsing the i/o halves of each node.
func (c *CLG) toSyncNodes(path []int) []int {
	var out []int
	for _, v := range path {
		o := c.Orig[v]
		if len(out) > 0 && out[len(out)-1] == o {
			continue
		}
		out = append(out, o)
	}
	return out
}

// Cycles returns one representative cycle per nontrivial strongly-connected
// component, as sync-graph node id sets, for reporting.
func (c *CLG) Cycles() [][]int {
	comp, ncomp := c.G.SCC()
	sizes := graph.SCCSizes(comp, ncomp)
	members := make([][]int, ncomp)
	for v, cc := range comp {
		if sizes[cc] > 1 {
			members[cc] = append(members[cc], v)
		}
	}
	var out [][]int
	for _, m := range members {
		if len(m) == 0 {
			continue
		}
		set := map[int]bool{}
		var nodes []int
		for _, v := range m {
			o := c.Orig[v]
			if !set[o] {
				set[o] = true
				nodes = append(nodes, o)
			}
		}
		out = append(out, nodes)
	}
	return out
}

// SyncGraphHasCycle runs the naive pre-CLG check of §3.1: a depth-first
// traversal of the *untransformed* sync graph treating sync edges as
// bidirectional. It finds spurious cycles like Figure 4(a); the CLG exists
// precisely to kill them. Exposed for the F4 experiment.
func SyncGraphHasCycle(s *sg.Graph) bool {
	g := graph.New(s.N())
	for u := 0; u < s.Control.N(); u++ {
		for _, v := range s.Control.Succ(u) {
			g.AddEdgeUnique(u, v)
		}
	}
	for u, adj := range s.Sync {
		for _, v := range adj {
			g.AddEdgeUnique(u, v)
		}
	}
	// A cycle that uses one sync edge back and forth (u->v->u) is not a
	// meaningful cycle; require a cycle visiting >= 2 distinct nodes via
	// SCC and, for 2-node components, at least one control edge.
	comp, ncomp := g.SCC()
	sizes := graph.SCCSizes(comp, ncomp)
	members := make([][]int, ncomp)
	for v, cc := range comp {
		members[cc] = append(members[cc], v)
	}
	for cc, m := range members {
		if sizes[cc] < 2 {
			continue
		}
		if sizes[cc] > 2 {
			return true
		}
		u, v := m[0], m[1]
		if s.Control.HasEdge(u, v) || s.Control.HasEdge(v, u) {
			return true
		}
		// Two nodes joined only by a sync edge: u<->v is an artifact of
		// treating the undirected edge as two arcs, not a cycle.
	}
	return false
}

// DOT renders the CLG in Graphviz format; sync-derived edges are dashed.
func (c *CLG) DOT() string {
	var b strings.Builder
	b.WriteString("digraph clg {\n")
	for v := 0; v < c.G.N(); v++ {
		name := c.SG.Nodes[c.Orig[v]].String()
		if c.IsIn[v] {
			name += "_i"
		} else if v != c.B && v != c.E {
			name += "_o"
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", v, name)
	}
	for u := 0; u < c.G.N(); u++ {
		for _, v := range c.G.Succ(u) {
			style := ""
			if c.IsSyncEdge(u, v) {
				style = " [style=dashed]"
			}
			fmt.Fprintf(&b, "  n%d -> n%d%s;\n", u, v, style)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
