// Package graph provides the small directed-graph toolkit that every
// analysis in this repository is built on: adjacency storage, depth-first
// search, cycle detection, Tarjan strongly-connected components, dominator
// trees and reachability closures.
//
// Nodes are dense non-negative integers assigned by the caller. All
// algorithms run in O(V+E) unless noted otherwise.
package graph

import (
	"fmt"
	"sort"
	"unsafe"
)

// Digraph is a directed graph over nodes 0..N-1 with adjacency lists.
// The zero value is an empty graph; grow it with EnsureNode / AddEdge.
type Digraph struct {
	succ [][]int
	pred [][]int
	m    int // edge count
}

// New returns a digraph with n nodes and no edges.
func New(n int) *Digraph {
	return &Digraph{succ: make([][]int, n), pred: make([][]int, n)}
}

// FromEdges returns the digraph on nodes 0..n-1 that calling AddEdgeUnique
// on each edge in order would build, in a fixed handful of allocations:
// every successor and predecessor row is carved from one slab, keeps its
// insertion order, and is capped at its own degree, so a later AddEdge
// reallocates that row alone instead of overwriting its neighbour. Nodes
// without edges keep nil rows, as in New.
func FromEdges(n int, edges [][2]int) *Digraph {
	rows := make([][]int, 2*n)
	g := &Digraph{succ: rows[:n:n], pred: rows[n:]}
	// Out-degrees, then in-degrees, duplicates included; small graphs
	// count on the stack.
	var small [64]int
	deg := small[:0]
	if 2*n <= len(small) {
		deg = small[:2*n]
	} else {
		deg = make([]int, 2*n)
	}
	for _, e := range edges {
		deg[e[0]]++
		deg[n+e[1]]++
	}
	slab := make([]int, 2*len(edges))
	off := 0
	for v, d := range deg {
		if d > 0 {
			rows[v] = slab[off : off : off+d]
			off += d
		}
	}
	for _, e := range edges {
		if row := g.succ[e[0]]; !contains(row, e[1]) {
			g.succ[e[0]] = append(row, e[1])
		}
	}
	// Walk the edges again: an edge was kept iff it is the next entry of
	// its source's row (a duplicate repeats an earlier entry, so it can
	// never be the next one). deg[:n] is reused as the per-row cursor.
	next := deg[:n]
	clear(next)
	for _, e := range edges {
		u, v := e[0], e[1]
		if row := g.succ[u]; next[u] < len(row) && row[next[u]] == v {
			next[u]++
			g.pred[v] = append(g.pred[v], u)
			g.m++
		}
	}
	for v, row := range rows {
		if row != nil {
			rows[v] = row[:len(row):len(row)]
		}
	}
	return g
}

func contains(s []int, v int) bool {
	for _, w := range s {
		if w == v {
			return true
		}
	}
	return false
}

// N reports the number of nodes.
func (g *Digraph) N() int { return len(g.succ) }

// M reports the number of edges.
func (g *Digraph) M() int { return g.m }

// SizeBytes reports the digraph's allocated footprint: both adjacency
// tables, every list at its capacity.
func (g *Digraph) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*g)) + TableBytes(g.succ) + TableBytes(g.pred)
}

// TableBytes is the allocated footprint of an int table such as an
// adjacency list: the row headers and every row at its capacity. Byte-
// budgeted caches use it to size the pipeline's artifacts.
func TableBytes(t [][]int) int64 {
	sz := int64(cap(t)) * int64(unsafe.Sizeof([]int(nil)))
	for _, row := range t {
		sz += int64(cap(row)) * 8
	}
	return sz
}

// MapBytes estimates the footprint of a Go map holding n entries of
// slotBytes (key plus value) each: a fixed header plus about two slots
// per entry, which covers the load factor and control bytes.
func MapBytes(n int, slotBytes int64) int64 {
	return 48 + int64(n)*2*slotBytes
}

// EnsureNode grows the graph so that node v exists, returning v.
func (g *Digraph) EnsureNode(v int) int {
	for len(g.succ) <= v {
		g.succ = append(g.succ, nil)
		g.pred = append(g.pred, nil)
	}
	return v
}

// AddNode appends a fresh node and returns its id.
func (g *Digraph) AddNode() int {
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return len(g.succ) - 1
}

// AddEdge inserts the directed edge u->v. Both endpoints are created if
// needed. Parallel edges are kept; callers that need simple graphs should
// use AddEdgeUnique.
func (g *Digraph) AddEdge(u, v int) {
	g.EnsureNode(u)
	g.EnsureNode(v)
	g.succ[u] = append(g.succ[u], v)
	g.pred[v] = append(g.pred[v], u)
	g.m++
}

// AddEdgeUnique inserts u->v unless it is already present.
func (g *Digraph) AddEdgeUnique(u, v int) {
	g.EnsureNode(u)
	g.EnsureNode(v)
	if !contains(g.succ[u], v) {
		g.AddEdge(u, v)
	}
}

// HasEdge reports whether the edge u->v is present.
func (g *Digraph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.succ) {
		return false
	}
	for _, w := range g.succ[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Succ returns the successor list of v. The slice is owned by the graph.
func (g *Digraph) Succ(v int) []int { return g.succ[v] }

// Pred returns the predecessor list of v. The slice is owned by the graph.
func (g *Digraph) Pred(v int) []int { return g.pred[v] }

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	c := New(g.N())
	c.m = g.m
	for v := range g.succ {
		c.succ[v] = append([]int(nil), g.succ[v]...)
		c.pred[v] = append([]int(nil), g.pred[v]...)
	}
	return c
}

// Reverse returns a new graph with every edge flipped.
func (g *Digraph) Reverse() *Digraph {
	r := New(g.N())
	for u := range g.succ {
		for _, v := range g.succ[u] {
			r.AddEdge(v, u)
		}
	}
	return r
}

// String renders the graph as "n=..., m=..., edges" for debugging.
func (g *Digraph) String() string {
	s := fmt.Sprintf("digraph(n=%d m=%d)", g.N(), g.M())
	for u := range g.succ {
		if len(g.succ[u]) == 0 {
			continue
		}
		s += fmt.Sprintf(" %d->%v", u, g.succ[u])
	}
	return s
}

// ReachableFrom returns the set of nodes reachable from any of the roots,
// including the roots themselves, as a boolean slice indexed by node.
func (g *Digraph) ReachableFrom(roots ...int) []bool {
	seen := make([]bool, g.N())
	stack := make([]int, 0, len(roots))
	for _, r := range roots {
		if r >= 0 && r < g.N() && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.succ[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// HasPath reports whether v is reachable from u (u reaches itself).
func (g *Digraph) HasPath(u, v int) bool {
	if u == v {
		return true
	}
	return g.ReachableFrom(u)[v]
}

// HasCycle reports whether the graph contains a directed cycle, and if so
// returns one witness cycle as a node sequence (first node repeated last).
func (g *Digraph) HasCycle() (bool, []int) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, g.N())
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
	}
	var cyc []int
	var visit func(v int) bool
	visit = func(v int) bool {
		color[v] = gray
		for _, w := range g.succ[v] {
			switch color[w] {
			case white:
				parent[w] = v
				if visit(w) {
					return true
				}
			case gray:
				// Found a back edge v->w: reconstruct w .. v, w.
				cyc = []int{w}
				for x := v; x != w; x = parent[x] {
					cyc = append(cyc, x)
				}
				// cyc currently holds w, v, ..., succ(w); reverse tail.
				for i, j := 1, len(cyc)-1; i < j; i, j = i+1, j-1 {
					cyc[i], cyc[j] = cyc[j], cyc[i]
				}
				cyc = append(cyc, w)
				return true
			}
		}
		color[v] = black
		return false
	}
	for v := 0; v < g.N(); v++ {
		if color[v] == white && visit(v) {
			return true, cyc
		}
	}
	return false, nil
}

// Topo returns a topological order of the graph, or an error if it is
// cyclic.
func (g *Digraph) Topo() ([]int, error) {
	indeg := make([]int, g.N())
	for u := range g.succ {
		for _, v := range g.succ[u] {
			indeg[v]++
		}
	}
	// Kahn's algorithm. Nodes leave the queue in the order they entered
	// it, so the queue itself becomes the order.
	order := make([]int, 0, g.N())
	for v, d := range indeg {
		if d == 0 {
			order = append(order, v)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, w := range g.succ[order[i]] {
			indeg[w]--
			if indeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	if len(order) != g.N() {
		return nil, fmt.Errorf("graph: topological sort of cyclic graph")
	}
	return order, nil
}

// SCC computes strongly-connected components with Tarjan's algorithm
// (iterative, so deep graphs do not overflow the goroutine stack).
// It returns comp (node -> component id) and the number of components.
// Component ids are in reverse topological order of the condensation.
func (g *Digraph) SCC() (comp []int, ncomp int) {
	n := g.N()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	idx := 0

	type frame struct {
		v  int
		ei int
	}
	var callStack []frame
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		callStack = append(callStack[:0], frame{root, 0})
		index[root], low[root] = idx, idx
		idx++
		stack = append(stack, root)
		onStack[root] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			v := f.v
			if f.ei < len(g.succ[v]) {
				w := g.succ[v][f.ei]
				f.ei++
				if index[w] == -1 {
					index[w], low[w] = idx, idx
					idx++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{w, 0})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// Finished v.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return comp, ncomp
}

// SCCSizes returns the size of every component given a comp labelling.
func SCCSizes(comp []int, ncomp int) []int {
	sizes := make([]int, ncomp)
	for _, c := range comp {
		if c >= 0 {
			sizes[c]++
		}
	}
	return sizes
}

// Dominators computes the immediate-dominator array for the flowgraph
// rooted at entry using the Cooper–Harvey–Kennedy iterative algorithm.
// idom[entry] == entry; nodes unreachable from entry get idom -1.
func (g *Digraph) Dominators(entry int) []int {
	n := g.N()
	// Reverse postorder of the reachable subgraph. The DFS stack holds
	// each node at most once, so it never outgrows n frames; the order,
	// rpo and idom arrays share one slab.
	ints := make([]int, 3*n)
	order, rpo, idom := ints[:0:n], ints[n:2*n:2*n], ints[2*n:]
	seen := make([]bool, n)
	type frame struct {
		v  int
		ei int
	}
	stack := append(make([]frame, 0, n), frame{entry, 0})
	seen[entry] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.ei < len(g.succ[f.v]) {
			w := g.succ[f.v][f.ei]
			f.ei++
			if !seen[w] {
				seen[w] = true
				stack = append(stack, frame{w, 0})
			}
			continue
		}
		order = append(order, f.v)
		stack = stack[:len(stack)-1]
	}
	// order is postorder; reverse it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for i := range rpo {
		rpo[i] = -1
	}
	for i, v := range order {
		rpo[v] = i
	}
	for i := range idom {
		idom[i] = -1
	}
	idom[entry] = entry
	intersect := func(a, b int) int {
		for a != b {
			for rpo[a] > rpo[b] {
				a = idom[a]
			}
			for rpo[b] > rpo[a] {
				b = idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, v := range order {
			if v == entry {
				continue
			}
			newIdom := -1
			for _, p := range g.pred[v] {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != -1 && idom[v] != newIdom {
				idom[v] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b given an idom array rooted at
// entry. Every node dominates itself.
func Dominates(idom []int, entry, a, b int) bool {
	if idom[b] == -1 {
		return false
	}
	for {
		if a == b {
			return true
		}
		if b == entry {
			return false
		}
		b = idom[b]
		if b == -1 {
			return false
		}
	}
}

// TransitiveClosure returns reach[u][v] = true iff v is reachable from u
// (including u itself). O(V*(V+E)); intended for the small per-task CFGs.
func (g *Digraph) TransitiveClosure() [][]bool {
	n := g.N()
	reach := make([][]bool, n)
	for u := 0; u < n; u++ {
		reach[u] = g.ReachableFrom(u)
	}
	return reach
}

// Sorted returns a copy of s in ascending order (convenience for tests).
func Sorted(s []int) []int {
	c := append([]int(nil), s...)
	sort.Ints(c)
	return c
}
