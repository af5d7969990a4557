package petri

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/sg"
)

// Build holds the net of a program together with the bookkeeping needed to
// interpret markings.
type Build struct {
	Net   *Net
	Graph *sg.Graph
	// PlaceOf maps a sync-graph rendezvous node to its "task waiting
	// here" place. DoneOf and StartOf map task indices to their terminal
	// and initial places.
	PlaceOf []int
	DoneOf  []int
	StartOf []int
}

// FromProgram translates a MiniAda program into a P/T net whose
// interleaving semantics matches the paper's execution-wave model:
//
//   - per task: a start place (one initial token), a place per rendezvous
//     position, and a done place;
//   - per task and initial position: a silent start transition modelling
//     the nondeterministic initial branch choice;
//   - per sync edge {s, a} and per combination of control successors of s
//     and a: one rendezvous transition consuming the two waiting tokens
//     and producing the two successor tokens (done places for e).
//
// Procedures are inlined and bounded loops expanded first, exactly as the
// wave explorer does, so the two analyses see the same program.
func FromProgram(p *lang.Program, loopLimit int) (*Build, error) {
	if len(p.Procs) > 0 || p.HasCalls() {
		p = p.InlineCalls()
	}
	expanded, err := cfg.ExpandBounded(p, loopLimit)
	if err != nil {
		return nil, err
	}
	g, err := sg.FromProgram(expanded)
	if err != nil {
		return nil, err
	}

	b := &Build{
		Net:     &Net{},
		Graph:   g,
		PlaceOf: make([]int, g.N()),
		DoneOf:  make([]int, len(g.Tasks)),
		StartOf: make([]int, len(g.Tasks)),
	}
	for i := range b.PlaceOf {
		b.PlaceOf[i] = -1
	}
	for ti, name := range g.Tasks {
		b.StartOf[ti] = b.Net.AddPlace("start." + name)
		b.DoneOf[ti] = b.Net.AddPlace("done." + name)
		for _, r := range g.TaskNodes(ti) {
			b.PlaceOf[r] = b.Net.AddPlace("at." + nodeName(g, r))
		}
	}

	// posPlace resolves a control position of task ti to a place.
	posPlace := func(ti, node int) int {
		if node == g.E {
			return b.DoneOf[ti]
		}
		return b.PlaceOf[node]
	}

	// Start transitions: nondeterministic initial choice per task.
	for ti := range g.Tasks {
		for i, first := range g.InitialNodes(ti) {
			b.Net.AddTransition(
				fmt.Sprintf("start.%s.%d", g.Tasks[ti], i),
				[]int{b.StartOf[ti]},
				[]int{posPlace(ti, first)},
			)
		}
	}

	// Rendezvous transitions.
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Sync.Row(u) {
			if u > v {
				continue
			}
			tu, tv := g.TaskOf[u], g.TaskOf[v]
			for _, su := range g.Control.Succ(u) {
				for _, sv := range g.Control.Succ(v) {
					b.Net.AddTransition(
						fmt.Sprintf("rv.%s.%s.%s.%s",
							nodeName(g, u), nodeName(g, v),
							posName(g, tu, su), posName(g, tv, sv)),
						[]int{b.PlaceOf[u], b.PlaceOf[v]},
						[]int{posPlace(tu, su), posPlace(tv, sv)},
					)
				}
			}
		}
	}

	// Initial marking: one token on every start place.
	b.Net.Initial = make(Marking, len(b.Net.Places))
	for ti := range g.Tasks {
		b.Net.Initial[b.StartOf[ti]] = 1
	}
	return b, nil
}

func nodeName(g *sg.Graph, id int) string {
	n := g.Nodes[id]
	if n.Label != "" {
		return n.Label
	}
	return n.String()
}

func posName(g *sg.Graph, ti, node int) string {
	if node == g.E {
		return "done." + g.Tasks[ti]
	}
	return nodeName(g, node)
}

// AllDone reports whether every task's done place is marked.
func (b *Build) AllDone(m Marking) bool {
	for _, d := range b.DoneOf {
		if m[d] == 0 {
			return false
		}
	}
	return true
}
