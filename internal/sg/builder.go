package sg

import (
	"slices"

	"repro/internal/cfg"
	"repro/internal/graph"
	"repro/internal/lang"
)

// Builder assembles a sync graph node by node, for graphs that do not come
// from a program — the paper's Theorem 3 reduction builds one whose sync
// edges cannot all be realized by code (a sync edge between two accepts),
// and unit tests use it for hand-drawn figures. It collects nodes and
// edges; Finish lays the graph out as Build does.
type Builder struct {
	g       *Graph
	taskOf  []int
	control [][2]int
	pairs   [][2]int
}

// NewBuilder returns an empty builder holding only the b and e nodes.
func NewBuilder() *Builder {
	g := &Graph{Nodes: []Node{{ID: 0, Kind: cfg.KindEntry}, {ID: 1, Kind: cfg.KindExit}}, B: 0, E: 1}
	return &Builder{g: g, taskOf: []int{-1, -1}}
}

// AddTask declares a task and returns its index.
func (b *Builder) AddTask(name string) int {
	b.g.Tasks = append(b.g.Tasks, name)
	return len(b.g.Tasks) - 1
}

// AddNode creates a rendezvous node in task ti and returns its id.
func (b *Builder) AddNode(ti int, kind cfg.NodeKind, sig lang.Signal, label string) int {
	id := len(b.g.Nodes)
	b.g.Nodes = append(b.g.Nodes, Node{ID: id, Task: b.g.Tasks[ti], Kind: kind, Sig: sig, Label: label})
	b.taskOf = append(b.taskOf, ti)
	return id
}

// AddControl records a directed control edge; use B() and E() for the
// distinguished endpoints. Duplicates are dropped by Finish.
func (b *Builder) AddControl(u, v int) { b.control = append(b.control, [2]int{u, v}) }

// SyncPair records an undirected sync edge.
func (b *Builder) SyncPair(u, v int) { b.pairs = append(b.pairs, [2]int{u, v}) }

// B returns the distinguished begin node id.
func (b *Builder) B() int { return b.g.B }

// E returns the distinguished end node id.
func (b *Builder) E() int { return b.g.E }

// Finish lays out the int tables and returns the graph. No task of a
// built graph can skip straight from b to e.
func (b *Builder) Finish() *Graph {
	g := b.g
	n := len(g.Nodes)
	rest := g.alloc(len(b.pairs), len(b.control))
	copy(g.TaskOf, b.taskOf)
	// Sync rows: both orientations of every pair, each row sorted.
	ends := make([]int, 0, 2*len(b.pairs))
	keys := make([]int, 0, 2*len(b.pairs))
	for _, p := range b.pairs {
		keys = append(keys, p[0], p[1])
		ends = append(ends, p[1], p[0])
	}
	g.Sync, rest = graph.RowsByKey(rest, n, len(keys), keys)
	for u := 0; u < n; u++ {
		row := g.Sync.Row(u)
		for i, k := range row {
			row[i] = ends[k]
		}
		slices.Sort(row)
	}
	g.finish(rest, b.control)
	return g
}
