package waves

import (
	"fmt"
	"strings"

	"repro/internal/sg"
)

// StateGraph materializes the wave closure as an explicit graph — the
// concurrency-state-graph representation of Taylor (1983) that the paper
// contrasts with the sync graph. Intended for inspection and teaching;
// state counts grow exponentially, so construction is capped.
type StateGraph struct {
	Graph *sg.Graph
	// States holds the distinct waves in discovery (BFS) order.
	States []StateNode
	// Edges are wave advances: firing Rendezvous moved state From to To.
	Edges []StateEdge
	// Truncated reports that MaxStates was hit.
	Truncated bool
}

// StateNode is one wave with its classification.
type StateNode struct {
	Wave      []int
	Terminal  bool // no rendezvous enabled
	Completed bool // all tasks at e
	Anomalous bool // terminal, not completed
	Deadlock  bool // anomalous with a coupling cycle
	Stall     bool // anomalous with a stall node
}

// StateEdge is one wave advance.
type StateEdge struct {
	From, To int
	Fired    Rendezvous
}

// BuildStateGraph explores the wave closure of g, recording every state
// and transition, up to maxStates (0 = 1<<14).
func BuildStateGraph(g *sg.Graph, maxStates int) *StateGraph {
	if maxStates <= 0 {
		maxStates = 1 << 14
	}
	out := &StateGraph{Graph: g}
	id := map[string]int{}

	intern := func(w []int) (int, bool) {
		k := encode(w)
		if i, ok := id[k]; ok {
			return i, false
		}
		if len(out.States) >= maxStates {
			out.Truncated = true
			return -1, false
		}
		i := len(out.States)
		id[k] = i
		out.States = append(out.States, StateNode{Wave: append([]int(nil), w...)})
		return i, true
	}

	nt := len(g.Tasks)
	initial := make([][]int, nt)
	for ti := 0; ti < nt; ti++ {
		initial[ti] = g.InitialNodes(ti)
	}
	var queue []int
	wave := make([]int, nt)
	var gen func(ti int)
	gen = func(ti int) {
		if ti == nt {
			if i, fresh := intern(wave); fresh {
				queue = append(queue, i)
			}
			return
		}
		for _, v := range initial[ti] {
			wave[ti] = v
			gen(ti + 1)
		}
	}
	gen(0)

	for qi := 0; qi < len(queue); qi++ {
		si := queue[qi]
		w := out.States[si].Wave
		advanced := false
		for u := 0; u < nt; u++ {
			if w[u] == g.E {
				continue
			}
			for v := u + 1; v < nt; v++ {
				if w[v] == g.E || !g.HasSyncEdge(w[u], w[v]) {
					continue
				}
				advanced = true
				for _, nu := range g.Control.Succ(w[u]) {
					for _, nv := range g.Control.Succ(w[v]) {
						nw := append([]int(nil), w...)
						nw[u], nw[v] = nu, nv
						ti, fresh := intern(nw)
						if ti < 0 {
							continue
						}
						if fresh {
							queue = append(queue, ti)
						}
						out.Edges = append(out.Edges, StateEdge{
							From: si, To: ti,
							Fired: Rendezvous{U: w[u], V: w[v]},
						})
					}
				}
			}
		}
		if !advanced {
			st := &out.States[si]
			st.Terminal = true
			st.Completed = true
			for _, x := range w {
				if x != g.E {
					st.Completed = false
					break
				}
			}
			if !st.Completed {
				st.Anomalous = true
				a := classify(g, w)
				st.Deadlock = len(a.DeadlockSet) > 0
				st.Stall = len(a.StallNodes) > 0
			}
		}
	}
	return out
}

// StateLabel renders one wave as "task:node" pairs.
func (s *StateGraph) StateLabel(i int) string {
	g := s.Graph
	parts := make([]string, len(s.States[i].Wave))
	for ti, n := range s.States[i].Wave {
		name := "e"
		if n != g.E {
			if g.Nodes[n].Label != "" {
				name = g.Nodes[n].Label
			} else {
				name = g.Nodes[n].String()
			}
		}
		parts[ti] = fmt.Sprintf("%s:%s", g.Tasks[ti], name)
	}
	return strings.Join(parts, " ")
}

// DOT renders the state graph in Graphviz format: doubled circles mark
// completion, filled red nodes mark anomalies.
func (s *StateGraph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph waves {\n  rankdir=LR;\n")
	for i, st := range s.States {
		attrs := ""
		switch {
		case st.Completed:
			attrs = ", shape=doublecircle"
		case st.Deadlock:
			attrs = ", style=filled, fillcolor=salmon"
		case st.Anomalous:
			attrs = ", style=filled, fillcolor=khaki"
		}
		fmt.Fprintf(&b, "  s%d [label=%q%s];\n", i, s.StateLabel(i), attrs)
	}
	g := s.Graph
	for _, e := range s.Edges {
		u, v := &g.Nodes[e.Fired.U], &g.Nodes[e.Fired.V]
		fmt.Fprintf(&b, "  s%d -> s%d [label=%q];\n", e.From, e.To,
			fmt.Sprintf("%s~%s", nodeLabel(u), nodeLabel(v)))
	}
	b.WriteString("}\n")
	return b.String()
}

func nodeLabel(n *sg.Node) string {
	if n.Label != "" {
		return n.Label
	}
	return n.String()
}
