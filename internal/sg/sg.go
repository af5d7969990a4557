// Package sg implements the sync graph, the paper's static program
// representation (§2): SG_P = (T, N, E_C, E_S) where N holds one node per
// rendezvous statement plus the distinguished begin node b and end node e,
// E_C holds directed control-flow edges between rendezvous points that some
// control path connects without intervening rendezvous, and E_S holds an
// undirected sync edge between every pair of complementary rendezvous
// points of the same signal type.
package sg

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/cfg"
	"repro/internal/graph"
	"repro/internal/lang"
)

// Node is a sync graph node. ID 0 is always b and ID 1 is always e; b and e
// are shared by all tasks, so their Task is empty.
type Node struct {
	ID    int
	Task  string
	Kind  cfg.NodeKind
	Sig   lang.Signal
	Label string
}

// IsRendezvous reports whether the node is a send or accept.
func (n *Node) IsRendezvous() bool { return isRendezvous(n.Kind) }

// Complementary reports whether nodes n and m form a matching signal pair:
// same signal type, opposite signs.
func (n *Node) Complementary(m *Node) bool {
	if n.Sig != m.Sig {
		return false
	}
	return (n.Kind == cfg.KindSend && m.Kind == cfg.KindAccept) ||
		(n.Kind == cfg.KindAccept && m.Kind == cfg.KindSend)
}

func (n *Node) String() string {
	switch n.Kind {
	case cfg.KindEntry:
		return "b"
	case cfg.KindExit:
		return "e"
	case cfg.KindSend:
		return fmt.Sprintf("%s:(%s,%s,+)", n.Label, n.Sig.Task, n.Sig.Msg)
	default:
		return fmt.Sprintf("%s:(%s,%s,-)", n.Label, n.Sig.Task, n.Sig.Msg)
	}
}

// Graph is the sync graph of a program.
//
// Layout: every int table (TaskOf, the task node lists, the sync rows
// and the control digraph, both as offset arrays) is carved from one
// []int slab, the nodes are one []Node, and every task, message and label
// string they hold is a substring of one string the graph owns, so a
// graph pins neither the program's AST nor its source text.
type Graph struct {
	Nodes   []Node
	B, E    int           // ids of the distinguished nodes (always 0, 1)
	Control graph.Digraph // E_C, directed, over node ids
	Sync    graph.Rows    // E_S adjacency, undirected; each row ascending

	Tasks      []string   // task names in program order
	TaskOf     []int      // node id -> task index; -1 for b and e
	taskNodes  graph.Rows // task index -> node ids (rendezvous only)
	skipToExit []int      // task index -> 1 if its CFG had a direct entry->exit edge
	names      string     // backs every string in Nodes and Tasks
	removed    int        // sync edges RemoveSyncEdges has deleted
}

// Build parses nothing: it constructs the sync graph from per-task CFGs.
// Counting passes size every table first: the node and name slabs, then
// one int slab for the rest (the control edges are collected into one
// list for graph.FromEdgesIn).
func Build(pc *cfg.ProgramCFG) *Graph {
	n, nedges, maxCFG, nameLen := 2, 0, 0, 0
	for _, tc := range pc.Tasks {
		n += len(tc.Nodes) - 2
		nedges += tc.G.M()
		maxCFG = max(maxCFG, len(tc.Nodes))
		nameLen += len(tc.Task)
		for _, cn := range tc.Nodes {
			if isRendezvous(cn.Kind) {
				nameLen += len(cn.Sig.Msg) + len(cn.Label)
				if cn.Sig.Task != tc.Task {
					nameLen += len(cn.Sig.Task)
				}
			}
		}
	}
	// The names: each task once, then per rendezvous node its signal's
	// task (unless it is the node's own), message and label. The nodes
	// below take their substrings in the same order.
	buf := make([]byte, 0, nameLen)
	for _, tc := range pc.Tasks {
		buf = append(buf, tc.Task...)
		for _, cn := range tc.Nodes {
			if isRendezvous(cn.Kind) {
				if cn.Sig.Task != tc.Task {
					buf = append(buf, cn.Sig.Task...)
				}
				buf = append(buf, cn.Sig.Msg...)
				buf = append(buf, cn.Label...)
			}
		}
	}
	nt := len(pc.Tasks)
	g := &Graph{
		Nodes: graph.Slab[Node](n),
		B:     0,
		E:     1,
		Tasks: make([]string, nt),
		names: unsafe.String(unsafe.SliceData(buf), len(buf)),
	}
	pos := 0
	name := func(l int) string {
		pos += l
		return g.names[pos-l : pos]
	}
	g.Nodes[0] = Node{ID: 0, Kind: cfg.KindEntry}
	g.Nodes[1] = Node{ID: 1, Kind: cfg.KindExit}
	id := 2
	for ti, tc := range pc.Tasks {
		task := name(len(tc.Task))
		g.Tasks[ti] = task
		for _, cn := range tc.Nodes {
			if isRendezvous(cn.Kind) {
				sig := lang.Signal{Task: task}
				if cn.Sig.Task != tc.Task {
					sig.Task = name(len(cn.Sig.Task))
				}
				sig.Msg = name(len(cn.Sig.Msg))
				g.Nodes[id] = Node{ID: id, Task: task, Kind: cn.Kind, Sig: sig, Label: name(len(cn.Label))}
				id++
			}
		}
	}

	byRun, nsync := signalRuns(g.Nodes)
	ints := g.alloc(nsync, nedges)
	// TaskOf and each task's control edges over SG ids, in CFG row order.
	cfgMap := make([]int, maxCFG) // one task's CFG id -> SG id, reused
	edges := make([][2]int, 0, nedges)
	g.TaskOf[0], g.TaskOf[1] = -1, -1
	id = 2
	for ti, tc := range pc.Tasks {
		m := cfgMap[:len(tc.Nodes)]
		for _, cn := range tc.Nodes {
			switch {
			case cn.ID == tc.Entry:
				m[cn.ID] = g.B
			case cn.ID == tc.Exit:
				m[cn.ID] = g.E
			case isRendezvous(cn.Kind):
				g.TaskOf[id] = ti
				m[cn.ID] = id
				id++
			default:
				m[cn.ID] = -1
			}
		}
		if tc.G.HasEdge(tc.Entry, tc.Exit) {
			g.skipToExit[ti] = 1
		}
		for u := 0; u < tc.G.N(); u++ {
			for _, v := range tc.G.Succ(u) {
				edges = append(edges, [2]int{m[u], m[v]})
			}
		}
	}
	ints = g.syncRows(ints, byRun, nsync)
	g.finish(ints, edges)
	return g
}

func isRendezvous(k cfg.NodeKind) bool { return k == cfg.KindSend || k == cfg.KindAccept }

// alloc sizes the graph's int slab for nsync sync edges and up to nedges
// control edges, carves TaskOf and skipToExit from it and returns the
// rest.
func (g *Graph) alloc(nsync, nedges int) []int {
	n, nt := len(g.Nodes), len(g.Tasks)
	ints := make([]int, n+nt+graph.RowsLen(nt, n-2)+graph.RowsLen(n, 2*nsync)+graph.DigraphLen(n, nedges))
	g.TaskOf, g.skipToExit = ints[:n:n], ints[n:n+nt:n+nt]
	return ints[n+nt:]
}

// finish carves the task node lists (from TaskOf) and the control
// digraph from the rest of the slab, last, since duplicate control edges
// leave its tail unused.
func (g *Graph) finish(rest []int, edges [][2]int) {
	n, nt := len(g.Nodes), len(g.Tasks)
	g.taskNodes, rest = graph.RowsByKey(rest, nt, n-2, g.TaskOf)
	g.Control, _ = graph.FromEdgesIn(rest, n, edges)
}

// signalRuns sorts the rendezvous node ids by (signal, id), so each
// signal type's nodes form one run, and counts E_S: per signal, sends
// times accepts.
func signalRuns(nodes []Node) ([]int, int) {
	ids := make([]int, 0, len(nodes))
	for i := range nodes {
		if nodes[i].IsRendezvous() {
			ids = append(ids, i)
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		sa, sb := &nodes[a].Sig, &nodes[b].Sig
		if c := strings.Compare(sa.Task, sb.Task); c != 0 {
			return c
		}
		if c := strings.Compare(sa.Msg, sb.Msg); c != 0 {
			return c
		}
		return a - b
	})
	total := 0
	for i, j := 0, 0; i < len(ids); i = j {
		j = runEnd(nodes, ids, i)
		plus := 0
		for _, v := range ids[i:j] {
			if nodes[v].Kind == cfg.KindSend {
				plus++
			}
		}
		total += plus * (j - i - plus)
	}
	return ids, total
}

// syncRows carves E_S from the front of dst: every complementary pair of
// the same signal type, each row listing its partners in ascending id
// order. byRun and nsync come from signalRuns.
func (g *Graph) syncRows(dst []int, byRun []int, nsync int) []int {
	n, nodes := len(g.Nodes), g.Nodes
	off, cells := dst[:n+1:n+1], dst[n+1:n+1+2*nsync:n+1+2*nsync]
	clear(off)
	for i, j := 0, 0; i < len(byRun); i = j {
		j = runEnd(nodes, byRun, i)
		plus := 0
		for _, v := range byRun[i:j] {
			if nodes[v].Kind == cfg.KindSend {
				plus++
			}
		}
		for _, v := range byRun[i:j] {
			if nodes[v].Kind == cfg.KindSend {
				off[v+1] = j - i - plus
			} else {
				off[v+1] = plus
			}
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	for i, j := 0, 0; i < len(byRun); i = j {
		j = runEnd(nodes, byRun, i)
		for _, u := range byRun[i:j] {
			at := off[u]
			for _, v := range byRun[i:j] {
				if nodes[u].Kind != nodes[v].Kind {
					cells[at] = v
					at++
				}
			}
		}
	}
	g.Sync = graph.RowsOf(off, cells)
	return dst[n+1+2*nsync:]
}

// runEnd returns the end of the run of ids[i]'s signal type in ids.
func runEnd(nodes []Node, ids []int, i int) int {
	j := i + 1
	for j < len(ids) && nodes[ids[j]].Sig == nodes[ids[i]].Sig {
		j++
	}
	return j
}

// IntsLen reports the ints the graph's tables occupy.
func (g *Graph) IntsLen() int {
	return len(g.TaskOf) + len(g.skipToExit) + g.taskNodes.IntsLen() + g.Sync.IntsLen() + g.Control.IntsLen()
}

// MoveInts copies the graph's int tables to the front of dst, which must
// hold IntsLen ints, points g at the copies and returns the rest of dst.
// core.NewAnalyzer calls it on its own copy of a graph, so that one slab
// holds the graph's tables and the analyzer's.
func (g *Graph) MoveInts(dst []int) []int {
	g.TaskOf, dst = graph.CopyTo(dst, g.TaskOf)
	g.skipToExit, dst = graph.CopyTo(dst, g.skipToExit)
	g.taskNodes, dst = g.taskNodes.MoveTo(dst)
	g.Sync, dst = g.Sync.MoveTo(dst)
	g.Control, dst = g.Control.MoveTo(dst)
	return dst
}

// FromProgram builds CFGs and then the sync graph in one step.
func FromProgram(p *lang.Program) (*Graph, error) {
	pc, err := cfg.Build(p)
	if err != nil {
		return nil, err
	}
	return Build(pc), nil
}

// MustFromProgram panics on error; for tests and fixed examples.
func MustFromProgram(p *lang.Program) *Graph {
	g, err := FromProgram(p)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes including b and e.
func (g *Graph) N() int { return len(g.Nodes) }

// NumRendezvous counts the send and accept nodes, derived from each
// node's own kind rather than assuming a fixed number of virtual nodes.
// Reporting code must use this instead of N()-2, so graphs with different
// virtual-node accounting can never misreport.
func (g *Graph) NumRendezvous() int {
	n := 0
	for i := range g.Nodes {
		if g.Nodes[i].IsRendezvous() {
			n++
		}
	}
	return n
}

// NumSyncEdges counts undirected sync edges.
func (g *Graph) NumSyncEdges() int { return g.Sync.Cells() / 2 }

// NumControlEdges counts directed control edges.
func (g *Graph) NumControlEdges() int { return g.Control.M() }

// SlabBytes reports the footprint of the slabs a graph shares with every
// copy whose int tables MoveInts re-points: the nodes, the names and the
// Tasks headers.
func (g *Graph) SlabBytes() int64 {
	return int64(cap(g.Nodes))*int64(unsafe.Sizeof(Node{})) + int64(len(g.names)) + int64(cap(g.Tasks))*16
}

// TaskNodes returns the rendezvous node ids of task index ti.
func (g *Graph) TaskNodes(ti int) []int { return g.taskNodes.Row(ti) }

// TaskIndex returns the index of the named task, or -1.
func (g *Graph) TaskIndex(name string) int {
	for i, t := range g.Tasks {
		if t == name {
			return i
		}
	}
	return -1
}

// NodeByLabel resolves a rendezvous statement label to its node id, or -1.
func (g *Graph) NodeByLabel(label string) int {
	for i := range g.Nodes {
		if label != "" && g.Nodes[i].Label == label {
			return i
		}
	}
	return -1
}

// RemoveSyncEdges deletes the given undirected sync edges (pairs in
// either orientation), returning how many existed. Feasibility
// refinements (order.InfeasibleSyncPairs) use this before analysis.
func (g *Graph) RemoveSyncEdges(pairs [][2]int) int {
	drop := map[[2]int]bool{}
	for _, p := range pairs {
		drop[[2]int{p[0], p[1]}] = true
		drop[[2]int{p[1], p[0]}] = true
	}
	removed := g.Sync.Filter(func(u, v int) bool { return !drop[[2]int{u, v}] }) / 2
	g.removed += removed
	return removed
}

// RemovedSyncEdges reports how many sync edges RemoveSyncEdges has
// deleted from the graph since it was built.
func (g *Graph) RemovedSyncEdges() int { return g.removed }

// HasSyncEdge reports whether {u, v} is in E_S.
func (g *Graph) HasSyncEdge(u, v int) bool {
	adj := g.Sync.Row(u)
	i := sort.SearchInts(adj, v)
	return i < len(adj) && adj[i] == v
}

// InitialNodes returns task ti's possible first wave entries: the control
// successors of b belonging to the task, plus e when the task's CFG allows
// reaching the end without any rendezvous (paper: W_INIT[u] may be e when
// there is a control flow edge (b, e) in task u). Because b and e are
// shared nodes, the per-task b->e information is kept separately.
func (g *Graph) InitialNodes(ti int) []int {
	var out []int
	for _, v := range g.Control.Succ(g.B) {
		if v != g.E && g.TaskOf[v] == ti {
			out = append(out, v)
		}
	}
	if g.skipToExit[ti] == 1 {
		out = append(out, g.E)
	}
	return out
}

// DOT renders the sync graph in Graphviz format: solid arrows are control
// edges, dashed lines are sync edges.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("graph sync {\n  rankdir=TB;\n")
	for i := range g.Nodes {
		b.WriteString(fmt.Sprintf("  n%d [label=%q];\n", i, g.Nodes[i].String()))
	}
	for u := 0; u < g.Control.N(); u++ {
		for _, v := range g.Control.Succ(u) {
			b.WriteString(fmt.Sprintf("  n%d -- n%d [dir=forward];\n", u, v))
		}
	}
	for u := 0; u < g.Sync.Len(); u++ {
		for _, v := range g.Sync.Row(u) {
			if u < v {
				b.WriteString(fmt.Sprintf("  n%d -- n%d [style=dashed];\n", u, v))
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
