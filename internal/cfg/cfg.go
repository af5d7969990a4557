// Package cfg builds per-task control-flow graphs over rendezvous points,
// the representation the sync graph's E_C edge set is defined on: a directed
// edge (r, s) exists iff some control-flow path runs from r to s passing no
// other rendezvous point (paper §2).
//
// Construction is two-phase: a statement-level CFG including virtual nodes
// for branch joins and loop heads is built first, then contracted so that
// only rendezvous points and the distinguished entry/exit remain.
//
// The package also implements the paper's §3.1.4 loop handling: the
// anomaly-preserving twice-unroll transform of Lemma 1 (Unroll) and exact
// expansion of statically bounded loops (ExpandBounded) used by the exact
// wave explorer.
package cfg

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/lang"
)

// NodeKind classifies CFG nodes after contraction.
type NodeKind int

const (
	// KindEntry is the task's begin point (maps to the sync graph's b).
	KindEntry NodeKind = iota
	// KindExit is the task's end point (maps to the sync graph's e).
	KindExit
	// KindSend is a signaling rendezvous point (t, m, +).
	KindSend
	// KindAccept is an accepting rendezvous point (t, m, -).
	KindAccept
)

func (k NodeKind) String() string {
	switch k {
	case KindEntry:
		return "entry"
	case KindExit:
		return "exit"
	case KindSend:
		return "send"
	case KindAccept:
		return "accept"
	}
	return "?"
}

// Node is one contracted CFG node.
type Node struct {
	ID    int // index within the task CFG
	Kind  NodeKind
	Sig   lang.Signal // receiving task + message, for send/accept nodes
	Label string      // statement label, for send/accept nodes
	Pos   lang.Pos
}

// Sign returns "+" for sends, "-" for accepts, "" otherwise (paper's s).
func (n *Node) Sign() string {
	switch n.Kind {
	case KindSend:
		return "+"
	case KindAccept:
		return "-"
	}
	return ""
}

func (n *Node) String() string {
	switch n.Kind {
	case KindEntry:
		return "b"
	case KindExit:
		return "e"
	}
	return fmt.Sprintf("%s(%s,%s,%s)", n.Label, n.Sig.Task, n.Sig.Msg, n.Sign())
}

// TaskCFG is the contracted control-flow graph of a single task.
// Nodes[Entry] and Nodes[Exit] are the distinguished begin/end points.
type TaskCFG struct {
	Task  string
	Nodes []*Node
	G     *graph.Digraph // edges over Node.ID
	Entry int
	Exit  int
}

// Rendezvous returns the non-entry/exit nodes in program order.
func (t *TaskCFG) Rendezvous() []*Node {
	var out []*Node
	for _, n := range t.Nodes {
		if n.Kind == KindSend || n.Kind == KindAccept {
			out = append(out, n)
		}
	}
	return out
}

// HasLoops reports whether the contracted CFG contains a directed cycle.
func (t *TaskCFG) HasLoops() bool {
	ok, _ := t.G.HasCycle()
	return ok
}

// ProgramCFG bundles the per-task CFGs of a program.
type ProgramCFG struct {
	Prog   *lang.Program
	Tasks  []*TaskCFG
	byName map[string]*TaskCFG
}

// Task returns the CFG of the named task, or nil.
func (p *ProgramCFG) Task(name string) *TaskCFG { return p.byName[name] }

// NumRendezvous counts rendezvous nodes across all tasks.
func (p *ProgramCFG) NumRendezvous() int {
	n := 0
	for _, t := range p.Tasks {
		n += len(t.Nodes) - 2
	}
	return n
}

// Build constructs the contracted per-task CFGs for a validated program.
// Programs using procedures must be inlined first (lang.InlineCalls); the
// analyses are defined on the paper's intraprocedural model.
func Build(p *lang.Program) (*ProgramCFG, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Procs) > 0 || p.HasCalls() {
		return nil, fmt.Errorf("cfg: program has procedures; apply lang.InlineCalls first")
	}
	out := &ProgramCFG{Prog: p, Tasks: make([]*TaskCFG, 0, len(p.Tasks)), byName: make(map[string]*TaskCFG, len(p.Tasks))}
	for _, t := range p.Tasks {
		tc, err := buildTask(t)
		if err != nil {
			return nil, err
		}
		out.Tasks = append(out.Tasks, tc)
		out.byName[t.Name] = tc
	}
	return out, nil
}

// MustBuild is Build that panics on error; for tests and fixed examples.
func MustBuild(p *lang.Program) *ProgramCFG {
	c, err := Build(p)
	if err != nil {
		panic(err)
	}
	return c
}

// --- statement-level construction ------------------------------------------

// rawBuilder records the statement-level CFG of one task as an edge list
// over raw node ids. Virtual nodes (sequence points, branch joins, loop
// heads) are contracted away afterwards; real nodes — entry, exit and the
// rendezvous points — get their contracted id as they are created.
type rawBuilder struct {
	task  *lang.Task
	nodes []Node // contracted nodes: entry, exit, rendezvous in creation order
	idMap []int  // raw id -> contracted id, -1 for virtual nodes
	edges [][2]int
}

func (b *rawBuilder) newVirtual() int {
	b.idMap = append(b.idMap, -1)
	return len(b.idMap) - 1
}

func (b *rawBuilder) newReal(n Node) int {
	n.ID = len(b.nodes)
	b.nodes = append(b.nodes, n)
	b.idMap = append(b.idMap, n.ID)
	return len(b.idMap) - 1
}

func (b *rawBuilder) edge(u, v int) { b.edges = append(b.edges, [2]int{u, v}) }

// shape counts the raw nodes, rendezvous points and edges that buildStmts
// creates for ss, so the builder's tables can be sized before it runs.
func shape(ss []lang.Stmt) (nodes, rendezvous, edges int) {
	if len(ss) == 0 {
		return 0, 0, 1
	}
	nodes = len(ss) - 1
	for _, s := range ss {
		switch v := s.(type) {
		case *lang.Null:
			edges++
		case *lang.Send, *lang.Accept:
			nodes, rendezvous, edges = nodes+1, rendezvous+1, edges+2
		case *lang.If:
			n1, r1, e1 := shape(v.Then)
			n2, r2, e2 := shape(v.Else)
			nodes, rendezvous, edges = nodes+n1+n2, rendezvous+r1+r2, edges+e1+e2
		case *lang.Loop:
			n1, r1, e1 := shape(v.Body)
			nodes, rendezvous, edges = nodes+1+n1, rendezvous+r1, edges+2+e1
		}
	}
	return nodes, rendezvous, edges
}

// buildStmts wires ss between from and to, returning nothing; every path
// from `from` reaches `to`.
func (b *rawBuilder) buildStmts(ss []lang.Stmt, from, to int) {
	cur := from
	for i, s := range ss {
		next := to
		if i < len(ss)-1 {
			next = b.newVirtual()
		}
		b.buildStmt(s, cur, next)
		cur = next
	}
	if len(ss) == 0 {
		b.edge(from, to)
	}
}

func (b *rawBuilder) buildStmt(s lang.Stmt, from, to int) {
	switch v := s.(type) {
	case *lang.Null:
		b.edge(from, to)
	case *lang.Send:
		id := b.newReal(Node{Kind: KindSend, Sig: lang.Signal{Task: v.Target, Msg: v.Msg}, Label: v.Label(), Pos: v.Pos})
		b.edge(from, id)
		b.edge(id, to)
	case *lang.Accept:
		id := b.newReal(Node{Kind: KindAccept, Sig: lang.Signal{Task: b.task.Name, Msg: v.Msg}, Label: v.Label(), Pos: v.Pos})
		b.edge(from, id)
		b.edge(id, to)
	case *lang.If:
		b.buildStmts(v.Then, from, to)
		b.buildStmts(v.Else, from, to)
	case *lang.Loop:
		// Loop head is a virtual node; the body returns to it and the
		// head exits the loop, giving every loop the zero-or-more shape.
		// Exact iteration counts of bounded loops only matter to the
		// wave explorer, which expands them first (ExpandBounded);
		// at-least-once loops are widened to zero-or-more, which can
		// only add control paths and is therefore safe for the
		// conservative detectors.
		head := b.newVirtual()
		b.edge(from, head)
		b.buildStmts(v.Body, head, head)
		b.edge(head, to)
	default:
		panic(fmt.Sprintf("cfg: unknown statement %T", s))
	}
}

func buildTask(t *lang.Task) (*TaskCFG, error) {
	nodes, rendezvous, edges := shape(t.Body)
	nraw := 2 + nodes
	// One int slab holds the raw-to-contracted id map, the epoch-stamped
	// seen marks and the DFS stack of the contraction below.
	scratch := make([]int, 2*nraw+edges)
	b := &rawBuilder{
		task:  t,
		nodes: make([]Node, 0, 2+rendezvous),
		idMap: scratch[:0:nraw],
		edges: make([][2]int, 0, edges),
	}
	entry := b.newReal(Node{Kind: KindEntry})
	exit := b.newReal(Node{Kind: KindExit})
	b.buildStmts(t.Body, entry, exit)
	raw := graph.FromEdges(nraw, b.edges)

	// Contract virtual nodes: the final node set is entry, exit and all
	// rendezvous nodes; an edge u->v exists iff a path of virtual nodes
	// connects them in the raw graph. For each real node but exit, a DFS
	// through virtual nodes finds the set of next real nodes.
	tc := &TaskCFG{Task: t.Name, Nodes: make([]*Node, len(b.nodes)), Entry: b.idMap[entry], Exit: b.idMap[exit]}
	for i := range b.nodes {
		tc.Nodes[i] = &b.nodes[i]
	}
	idMap := b.idMap
	seen := scratch[nraw : 2*nraw]
	stack := scratch[2*nraw : 2*nraw]
	cedges := b.edges[:0] // the raw edges now live in raw's slab
	for src := 0; src < nraw; src++ {
		if idMap[src] == -1 || src == exit {
			continue
		}
		epoch := src + 1
		stack = append(stack, raw.Succ(src)...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] == epoch {
				continue
			}
			seen[v] = epoch
			if idMap[v] != -1 { // real node (or exit)
				cedges = append(cedges, [2]int{idMap[src], idMap[v]})
				continue
			}
			stack = append(stack, raw.Succ(v)...)
		}
	}
	tc.G = graph.FromEdges(len(tc.Nodes), cedges)
	return tc, nil
}

// IsReducible reports whether the flowgraph g rooted at entry is reducible:
// after removing back edges (u->v with v dominating u), the graph must be
// acyclic. MiniAda's structured syntax always yields reducible CFGs; the
// check exists because the paper's assumptions demand it be verifiable.
func IsReducible(g *graph.Digraph, entry int) bool {
	idom := g.Dominators(entry)
	fwd := make([][2]int, 0, g.M())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Succ(u) {
			if graph.Dominates(idom, entry, v, u) {
				continue // back edge
			}
			fwd = append(fwd, [2]int{u, v})
		}
	}
	cyc, _ := graph.FromEdges(g.N(), fwd).HasCycle()
	return !cyc
}
