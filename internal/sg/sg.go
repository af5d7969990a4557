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
func (n *Node) IsRendezvous() bool {
	return n.Kind == cfg.KindSend || n.Kind == cfg.KindAccept
}

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
type Graph struct {
	Nodes   []*Node
	B, E    int            // ids of the distinguished nodes (always 0, 1)
	Control *graph.Digraph // E_C, directed, over node ids
	Sync    [][]int        // E_S adjacency, undirected, over node ids

	Tasks      []string // task names in program order
	TaskOf     []int    // node id -> task index; -1 for b and e
	taskNodes  [][]int  // task index -> node ids (rendezvous only)
	skipToExit []bool   // task index -> CFG had a direct entry->exit edge
	byLabel    map[string]int
}

// Build parses nothing: it constructs the sync graph from per-task CFGs.
// Every table is sized from the CFGs' counts up front: the nodes live in
// one slab, the control edges are collected into one list for
// graph.FromEdges, and the sync rows are carved from one slab.
func Build(pc *cfg.ProgramCFG) *Graph {
	n, maxCFG, nedges := 2, 0, 0
	for _, tc := range pc.Tasks {
		n += len(tc.Nodes) - 2
		maxCFG = max(maxCFG, len(tc.Nodes))
		nedges += tc.G.M()
	}
	nt := len(pc.Tasks)
	g := &Graph{
		Nodes:      make([]*Node, n),
		B:          0,
		E:          1,
		Tasks:      make([]string, nt),
		TaskOf:     make([]int, n),
		taskNodes:  make([][]int, nt),
		skipToExit: make([]bool, nt),
		byLabel:    make(map[string]int, n-2),
	}
	ids := make([]int, n-2)       // every task's rendezvous ids, in order
	cfgMap := make([]int, maxCFG) // one task's CFG id -> SG id, reused
	nodes := make([]Node, n)
	nodes[0] = Node{ID: 0, Kind: cfg.KindEntry}
	nodes[1] = Node{ID: 1, Kind: cfg.KindExit}
	g.Nodes[0], g.Nodes[1] = &nodes[0], &nodes[1]
	g.TaskOf[0], g.TaskOf[1] = -1, -1

	// Create rendezvous nodes task by task, and each task's control edges
	// over SG ids in CFG row order.
	edges := make([][2]int, 0, nedges)
	id := 2
	for ti, tc := range pc.Tasks {
		g.Tasks[ti] = tc.Task
		m := cfgMap[:len(tc.Nodes)]
		first := id
		for _, cn := range tc.Nodes {
			switch {
			case cn.ID == tc.Entry:
				m[cn.ID] = g.B
			case cn.ID == tc.Exit:
				m[cn.ID] = g.E
			case cn.Kind == cfg.KindSend || cn.Kind == cfg.KindAccept:
				nodes[id] = Node{ID: id, Task: tc.Task, Kind: cn.Kind, Sig: cn.Sig, Label: cn.Label}
				g.Nodes[id] = &nodes[id]
				g.TaskOf[id] = ti
				ids[id-2] = id
				m[cn.ID] = id
				if cn.Label != "" {
					g.byLabel[cn.Label] = id
				}
				id++
			default:
				m[cn.ID] = -1
			}
		}
		g.taskNodes[ti] = ids[first-2 : id-2 : id-2]
		g.skipToExit[ti] = tc.G.HasEdge(tc.Entry, tc.Exit)
		for u := 0; u < tc.G.N(); u++ {
			for _, v := range tc.G.Succ(u) {
				edges = append(edges, [2]int{m[u], m[v]})
			}
		}
	}
	g.Control = graph.FromEdges(n, edges)
	g.Sync = syncRows(g.Nodes)
	return g
}

// syncRows builds E_S: every complementary pair of the same signal type,
// each row listing its partners in ascending id order. Rendezvous nodes
// are sorted by (signal, id) so each signal's nodes form one run; the
// rows are carved from one slab sized by the runs' send and accept
// counts.
func syncRows(nodes []*Node) [][]int {
	ids := make([]int, 0, len(nodes))
	for _, n := range nodes {
		if n.IsRendezvous() {
			ids = append(ids, n.ID)
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		sa, sb := nodes[a].Sig, nodes[b].Sig
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
		total += 2 * plus * (j - i - plus)
	}
	rows := make([][]int, len(nodes))
	slab := make([]int, 0, total)
	for i, j := 0, 0; i < len(ids); i = j {
		j = runEnd(nodes, ids, i)
		for _, u := range ids[i:j] {
			start := len(slab)
			for _, v := range ids[i:j] {
				if nodes[u].Kind != nodes[v].Kind {
					slab = append(slab, v)
				}
			}
			if len(slab) > start {
				rows[u] = slab[start:len(slab):len(slab)]
			}
		}
	}
	return rows
}

// runEnd returns the end of the run of ids[i]'s signal type in ids.
func runEnd(nodes []*Node, ids []int, i int) int {
	j := i + 1
	for j < len(ids) && nodes[ids[j]].Sig == nodes[ids[i]].Sig {
		j++
	}
	return j
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
	for _, nd := range g.Nodes {
		if nd.IsRendezvous() {
			n++
		}
	}
	return n
}

// NumSyncEdges counts undirected sync edges.
func (g *Graph) NumSyncEdges() int {
	n := 0
	for _, adj := range g.Sync {
		n += len(adj)
	}
	return n / 2
}

// NumControlEdges counts directed control edges.
func (g *Graph) NumControlEdges() int { return g.Control.M() }

// SizeBytes approximates the graph's resident footprint, for byte-
// budgeted caches: node structs and the node table, control and sync
// adjacency at their capacities, the per-task tables and the label
// index. Labels and task names are shared with the program, which
// counts them.
func (g *Graph) SizeBytes() int64 {
	sz := int64(unsafe.Sizeof(*g))
	sz += int64(cap(g.Nodes))*8 + int64(len(g.Nodes))*int64(unsafe.Sizeof(Node{}))
	sz += g.Control.SizeBytes() + graph.TableBytes(g.Sync) + graph.TableBytes(g.taskNodes)
	sz += int64(cap(g.Tasks))*16 + int64(cap(g.TaskOf))*8 + int64(cap(g.skipToExit))
	sz += graph.MapBytes(len(g.byLabel), 24)
	return sz
}

// TaskNodes returns the rendezvous node ids of task index ti.
func (g *Graph) TaskNodes(ti int) []int { return g.taskNodes[ti] }

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
	if id, ok := g.byLabel[label]; ok {
		return id
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
	removed := 0
	for u := range g.Sync {
		kept := g.Sync[u][:0]
		for _, v := range g.Sync[u] {
			if drop[[2]int{u, v}] {
				removed++
				continue
			}
			kept = append(kept, v)
		}
		g.Sync[u] = kept
	}
	return removed / 2
}

// HasSyncEdge reports whether {u, v} is in E_S.
func (g *Graph) HasSyncEdge(u, v int) bool {
	adj := g.Sync[u]
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
	if g.skipToExit[ti] {
		out = append(out, g.E)
	}
	return out
}

// DOT renders the sync graph in Graphviz format: solid arrows are control
// edges, dashed lines are sync edges.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("graph sync {\n  rankdir=TB;\n")
	for _, n := range g.Nodes {
		label := n.String()
		b.WriteString(fmt.Sprintf("  n%d [label=%q];\n", n.ID, label))
	}
	for u := 0; u < g.Control.N(); u++ {
		for _, v := range g.Control.Succ(u) {
			b.WriteString(fmt.Sprintf("  n%d -- n%d [dir=forward];\n", u, v))
		}
	}
	for u, adj := range g.Sync {
		for _, v := range adj {
			if u < v {
				b.WriteString(fmt.Sprintf("  n%d -- n%d [style=dashed];\n", u, v))
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
