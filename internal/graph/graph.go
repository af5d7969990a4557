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
	"slices"
	"sort"
)

// Slab returns a zeroed slice of n elements whose capacity is the whole
// allocation the runtime makes for it — n rounded up to the allocator's
// size class — so a cache that sizes an artifact by its slabs'
// capacities counts the bytes it actually holds.
func Slab[T any](n int) []T { return slices.Grow([]T(nil), n)[:n] }

// Rows is a table of int rows in offset-array form: row i is
// cells[off[i]:off[i+1]]. Both arrays are plain []int, so a builder can
// carve them from one slab it has sized. The zero value has no rows.
type Rows struct{ off, cells []int }

// RowsLen reports the ints a table of n rows holding m cells occupies.
func RowsLen(n, m int) int { return n + 1 + m }

// RowsIn carves an empty table of n rows with room for m cells from the
// front of dst and returns it with the rest of dst. Fill it row by row:
// Append row i's cells, then EndRow(i), for every i in ascending order.
func RowsIn(dst []int, n, m int) (Rows, []int) {
	off := dst[: n+1 : n+1]
	clear(off)
	return Rows{off: off, cells: dst[n+1 : n+1 : n+1+m]}, dst[n+1+m:]
}

// RowsOf wraps filled offset and cell arrays: off holds n+1 ascending
// offsets into cells, from 0 to len(cells).
func RowsOf(off, cells []int) Rows { return Rows{off: off, cells: cells} }

// Append adds v to the row being filled. Appending beyond the room
// RowsIn reserved moves the cells off the slab.
func (r *Rows) Append(v int) { r.cells = append(r.cells, v) }

// Extend appends to the row being filled whatever f appends to its
// argument, as bitset.Row.Members does.
func (r *Rows) Extend(f func([]int) []int) { r.cells = f(r.cells) }

// EndRow closes row i with the cells appended since row i-1 was closed.
func (r *Rows) EndRow(i int) { r.off[i+1] = len(r.cells) }

// Len reports the number of rows.
func (r *Rows) Len() int { return max(len(r.off)-1, 0) }

// Row returns row i, capped at its length. The slice is owned by the
// table.
func (r *Rows) Row(i int) []int {
	a, b := r.off[i], r.off[i+1]
	return r.cells[a:b:b]
}

// Cells reports the number of cells in all rows.
func (r *Rows) Cells() int { return len(r.cells) }

// IntsLen reports the ints the table occupies.
func (r *Rows) IntsLen() int { return len(r.off) + len(r.cells) }

// MoveTo copies the table to the front of dst and returns the copy and
// the rest of dst.
func (r *Rows) MoveTo(dst []int) (Rows, []int) {
	off, dst := CopyTo(dst, r.off)
	cells, dst := CopyTo(dst, r.cells)
	return Rows{off: off, cells: cells}, dst
}

// CopyTo copies s to the front of dst and returns the capped copy and
// the rest of dst.
func CopyTo(dst, s []int) ([]int, []int) {
	c := dst[:len(s):len(s)]
	copy(c, s)
	return c, dst[len(s):]
}

// Filter drops every cell v of row i for which keep(i, v) is false,
// closing the gaps in place, and returns how many it dropped.
func (r *Rows) Filter(keep func(i, v int) bool) int {
	w, start := 0, 0
	for i := 0; i < r.Len(); i++ {
		end := r.off[i+1]
		for _, v := range r.cells[start:end] {
			if keep(i, v) {
				r.cells[w] = v
				w++
			}
		}
		r.off[i+1], start = w, end
	}
	dropped := len(r.cells) - w
	r.cells = r.cells[:w:w]
	return dropped
}

// RowsByKey carves from the front of dst the table whose row k lists, in
// ascending order, every index i with keys[i] == k, for k in [0, n);
// other keys are skipped. m is the number of indexes kept. It returns
// the table and the rest of dst.
func RowsByKey(dst []int, n, m int, keys []int) (Rows, []int) {
	r, rest := RowsIn(dst, n, m)
	for _, k := range keys {
		if k >= 0 && k < n {
			r.off[k+1]++
		}
	}
	for k := 0; k < n; k++ {
		r.off[k+1] += r.off[k]
	}
	r.cells = r.cells[:r.off[n]]
	for i, k := range keys {
		if k >= 0 && k < n {
			r.cells[r.off[k]] = i
			r.off[k]++
		}
	}
	copy(r.off[1:], r.off[:n])
	r.off[0] = 0
	return r, rest
}

// Digraph is an immutable directed graph over nodes 0..N-1 whose
// successor and predecessor lists are offset arrays. FromEdges and
// FromEdgesIn build one; the zero value is the empty graph.
type Digraph struct{ succ, pred Rows }

// DigraphLen reports the ints FromEdgesIn needs for n nodes and m edges.
func DigraphLen(n, m int) int { return 2 * RowsLen(n, m) }

// FromEdges returns the digraph on nodes 0..n-1 with the given edges, in
// one allocation (see FromEdgesIn).
func FromEdges(n int, edges [][2]int) *Digraph {
	g, _ := FromEdgesIn(make([]int, DigraphLen(n, len(edges))), n, edges)
	return &g
}

// FromEdgesIn builds the digraph on nodes 0..n-1 with the given edges in
// the front of dst, which must hold DigraphLen(n, len(edges)) ints, and
// returns it with the part of dst it left unused (the room duplicate
// edges would have taken). Duplicate edges are dropped; every successor
// list keeps the edges' order and every predecessor list is ascending.
func FromEdgesIn(dst []int, n int, edges [][2]int) (Digraph, []int) {
	soff, poff := dst[:n+1:n+1], dst[n+1:2*n+2:2*n+2]
	cells := dst[2*n+2 : 2*n+2+len(edges)]
	clear(soff)
	clear(poff)
	// Provisional row starts from the out-degrees, duplicates included;
	// poff[:n] counts what each row keeps.
	for _, e := range edges {
		soff[e[0]+1]++
	}
	for v := 0; v < n; v++ {
		soff[v+1] += soff[v]
	}
	kept := poff[:n]
	for _, e := range edges {
		u, v := e[0], e[1]
		if at := soff[u] + kept[u]; !contains(cells[soff[u]:at], v) {
			cells[at] = v
			kept[u]++
		}
	}
	// Close the gaps the duplicates left.
	m := 0
	for u := 0; u < n; u++ {
		start := soff[u]
		copy(cells[m:], cells[start:start+kept[u]])
		soff[u] = m
		m += kept[u]
	}
	soff[n] = m
	g := Digraph{succ: Rows{off: soff, cells: cells[:m:m]}}
	// Predecessors by counting sort over the successor lists: poff[v]
	// runs from row v's start to its end, then shifts one place right.
	pcells := dst[2*n+2+m : 2*n+2+2*m : 2*n+2+2*m]
	clear(poff)
	for _, v := range g.succ.cells {
		poff[v+1]++
	}
	for v := 0; v < n; v++ {
		poff[v+1] += poff[v]
	}
	for u := 0; u < n; u++ {
		for _, v := range g.succ.Row(u) {
			pcells[poff[v]] = u
			poff[v]++
		}
	}
	copy(poff[1:], poff[:n])
	poff[0] = 0
	g.pred = Rows{off: poff, cells: pcells}
	return g, dst[2*n+2+2*m:]
}

func contains(s []int, v int) bool {
	for _, w := range s {
		if w == v {
			return true
		}
	}
	return false
}

// IntsLen reports the ints the graph's lists occupy.
func (g *Digraph) IntsLen() int { return g.succ.IntsLen() + g.pred.IntsLen() }

// MoveTo copies the graph's lists to the front of dst and returns the
// copy and the rest of dst.
func (g *Digraph) MoveTo(dst []int) (Digraph, []int) {
	var c Digraph
	c.succ, dst = g.succ.MoveTo(dst)
	c.pred, dst = g.pred.MoveTo(dst)
	return c, dst
}

// N reports the number of nodes.
func (g *Digraph) N() int { return g.succ.Len() }

// M reports the number of edges.
func (g *Digraph) M() int { return g.succ.Cells() }

// HasEdge reports whether the edge u->v is present.
func (g *Digraph) HasEdge(u, v int) bool {
	return u >= 0 && u < g.N() && contains(g.succ.Row(u), v)
}

// Succ returns the successor list of v. The slice is owned by the graph.
func (g *Digraph) Succ(v int) []int { return g.succ.Row(v) }

// Pred returns the predecessor list of v. The slice is owned by the graph.
func (g *Digraph) Pred(v int) []int { return g.pred.Row(v) }

// Reverse returns a new graph with every edge flipped.
func (g *Digraph) Reverse() *Digraph {
	edges := make([][2]int, 0, g.M())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Succ(u) {
			edges = append(edges, [2]int{v, u})
		}
	}
	return FromEdges(g.N(), edges)
}

// String renders the graph as "n=..., m=..., edges" for debugging.
func (g *Digraph) String() string {
	s := fmt.Sprintf("digraph(n=%d m=%d)", g.N(), g.M())
	for u := 0; u < g.N(); u++ {
		if row := g.Succ(u); len(row) > 0 {
			s += fmt.Sprintf(" %d->%v", u, row)
		}
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
		for _, w := range g.Succ(v) {
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
		for _, w := range g.Succ(v) {
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
	for _, v := range g.succ.cells {
		indeg[v]++
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
		for _, w := range g.Succ(order[i]) {
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

	// A frame walks its node's successors by cell position.
	off, cells := g.succ.off, g.succ.cells
	type frame struct{ v, at int }
	var callStack []frame
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		callStack = append(callStack[:0], frame{root, off[root]})
		index[root], low[root] = idx, idx
		idx++
		stack = append(stack, root)
		onStack[root] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			v := f.v
			if f.at < off[v+1] {
				w := cells[f.at]
				f.at++
				if index[w] == -1 {
					index[w], low[w] = idx, idx
					idx++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{w, off[w]})
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
		if succ := g.Succ(f.v); f.ei < len(succ) {
			w := succ[f.ei]
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
			for _, p := range g.Pred(v) {
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
