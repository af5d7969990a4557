package sat3

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/sg"
)

// This file reproduces the paper's Appendix A constructions.
//
// Theorem 2 (NP-hardness of constraints 1 + 3a): from a 3-CNF formula,
// build a MiniAda program of literal tasks, anti-ordering tasks and
// per-variable ordering tasks (Figures 6-8) such that the sync graph has a
// deadlock cycle whose head nodes are pairwise unsequenceable iff the
// formula is satisfiable.
//
// Theorem 3 (NP-completeness of constraints 1 + 2): from the same formula,
// build a raw sync graph — literal tasks without ordering machinery, plus
// artificial sync edges joining the top nodes of positive and negative
// tasks of each variable — such that a cycle with no two head nodes joined
// by a sync edge exists iff the formula is satisfiable. As the paper notes,
// this graph does not generally correspond to any program, which is why it
// is built with sg.Builder rather than through MiniAda.

// occurrence identifies one literal occurrence: clause i, position j.
type occurrence struct{ i, j int }

// litTaskName names the literal task of clause i, position j (0-based).
func litTaskName(i, j int) string { return fmt.Sprintf("L_%d_%d", i, j) }

// antiTaskName names the anti-ordering task of a literal task.
func antiTaskName(i, j int) string { return fmt.Sprintf("A_%d_%d", i, j) }

// ordTaskName names the ordering task of variable v.
func ordTaskName(v int) string { return fmt.Sprintf("Ord_%d", v) }

// TopLabel is the statement label of the top (accept) node of literal task
// (i, j); tests and checkers use it to locate head nodes.
func TopLabel(i, j int) string { return fmt.Sprintf("top_%d_%d", i, j) }

// occurrences returns the positive and negative occurrence lists per
// variable (1-based).
func occurrences(f *Formula) (pos, neg [][]occurrence) {
	pos = make([][]occurrence, f.NumVars+1)
	neg = make([][]occurrence, f.NumVars+1)
	for i, c := range f.Clauses {
		for j, l := range c {
			if l.Pos() {
				pos[l.Var()] = append(pos[l.Var()], occurrence{i, j})
			} else {
				neg[l.Var()] = append(neg[l.Var()], occurrence{i, j})
			}
		}
	}
	return pos, neg
}

// signalingGroup builds the conditional send group of Figure 7: exactly
// one of three sends to the top nodes of the next clause's tasks executes.
func signalingGroup(i, j, nextClause int) []lang.Stmt {
	send := func(k int) lang.Stmt {
		s := &lang.Send{Target: litTaskName(nextClause, k), Msg: "top"}
		s.SetLabel(fmt.Sprintf("sig_%d_%d_%d", i, j, k))
		return s
	}
	inner := &lang.If{
		Cond: fmt.Sprintf("pick_%d_%d_b", i, j),
		Then: []lang.Stmt{send(1)},
		Else: []lang.Stmt{send(2)},
	}
	return []lang.Stmt{&lang.If{
		Cond: fmt.Sprintf("pick_%d_%d_a", i, j),
		Then: []lang.Stmt{send(0)},
		Else: []lang.Stmt{inner},
	}}
}

// BuildTheorem2 constructs the Theorem 2 program for f.
func BuildTheorem2(f *Formula) (*lang.Program, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	pos, neg := occurrences(f)
	// Ordering tasks exist only for variables with both polarities; for
	// single-polarity variables ordering constraints are vacuous.
	ordered := make([]bool, f.NumVars+1)
	for v := 1; v <= f.NumVars; v++ {
		ordered[v] = len(pos[v]) > 0 && len(neg[v]) > 0
	}

	p := &lang.Program{}
	m := len(f.Clauses)
	for i, c := range f.Clauses {
		q := (i + 1) % m
		for j, l := range c {
			v := l.Var()
			top := &lang.Accept{Msg: "top"}
			top.SetLabel(TopLabel(i, j))
			var body []lang.Stmt
			if l.Pos() {
				// Figure 7(a): top; signaling group; order-send last.
				body = append(body, top)
				body = append(body, signalingGroup(i, j, q)...)
				if ordered[v] {
					ord := &lang.Send{Target: ordTaskName(v), Msg: fmt.Sprintf("p_%d_%d", i, j)}
					ord.SetLabel(fmt.Sprintf("ordsend_%d_%d", i, j))
					body = append(body, ord)
				}
			} else {
				// Figure 7(b): order-send first; top; signaling group.
				if ordered[v] {
					ord := &lang.Send{Target: ordTaskName(v), Msg: fmt.Sprintf("n_%d_%d", i, j)}
					ord.SetLabel(fmt.Sprintf("ordsend_%d_%d", i, j))
					body = append(body, ord)
				}
				body = append(body, top)
				body = append(body, signalingGroup(i, j, q)...)
			}
			p.Tasks = append(p.Tasks, &lang.Task{Name: litTaskName(i, j), Body: body})

			// Anti-ordering task: a single free sender to the top node,
			// so tops are not forced to wait for the previous clause.
			anti := &lang.Send{Target: litTaskName(i, j), Msg: "top"}
			anti.SetLabel(fmt.Sprintf("anti_%d_%d", i, j))
			p.Tasks = append(p.Tasks, &lang.Task{
				Name: antiTaskName(i, j), Body: []lang.Stmt{anti},
			})
		}
	}
	// Ordering tasks (Figure 7(c)): all positive order-accepts, then all
	// negative ones, forcing every negative top after every positive top
	// of the same variable.
	for v := 1; v <= f.NumVars; v++ {
		if !ordered[v] {
			continue
		}
		var body []lang.Stmt
		for _, o := range pos[v] {
			a := &lang.Accept{Msg: fmt.Sprintf("p_%d_%d", o.i, o.j)}
			a.SetLabel(fmt.Sprintf("ordacc_p_%d_%d", o.i, o.j))
			body = append(body, a)
		}
		for _, o := range neg[v] {
			a := &lang.Accept{Msg: fmt.Sprintf("n_%d_%d", o.i, o.j)}
			a.SetLabel(fmt.Sprintf("ordacc_n_%d_%d", o.i, o.j))
			body = append(body, a)
		}
		p.Tasks = append(p.Tasks, &lang.Task{Name: ordTaskName(v), Body: body})
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sat3: theorem 2 construction invalid: %w", err)
	}
	p.AssignLabels()
	return p, nil
}

// Theorem2HasValidCycle reports whether the gadget's sync graph contains a
// deadlock cycle through the literal tasks whose head nodes are pairwise
// unsequenceable — the certificate Theorem 2 equates with satisfiability.
//
// Per the theorem's own argument, every valid cycle corresponds to a
// selection of one literal task per clause (cycles wrapping the clause
// ring more than once only add same-clause heads, which are never
// sequenceable, so single-wrap selections are complete); the checker
// therefore enumerates the 3^m selections, validating every control and
// sync step against the actual graph rather than assuming the gadget's
// shape. The generic CLG cycle enumerator agrees with this on small
// formulas (cross-checked in tests) but drowns in multi-wrap cycles on
// larger ones.
//
// The limit caps the number of selections (0 = default 1<<20); the second
// result is false when it was hit.
func Theorem2HasValidCycle(an *core.Analyzer, limit int) (bool, bool) {
	return selectionCycleExists(an, limit, func(a, b int) bool {
		return !an.Ord.Sequenceable(a, b)
	})
}

// Theorem3HasValidCycle reports whether a cycle exists with no two head
// nodes joined by a sync edge (constraints 1 + 2), for the Theorem 3
// graph, by the same selection enumeration.
func Theorem3HasValidCycle(an *core.Analyzer, limit int) (bool, bool) {
	g := an.SG
	return selectionCycleExists(an, limit, func(a, b int) bool {
		return !g.HasSyncEdge(a, b)
	})
}

// selectionCycleExists enumerates one-literal-per-clause selections and
// reports whether some selection forms a graph-validated cycle whose head
// (top) nodes satisfy headOK pairwise.
func selectionCycleExists(an *core.Analyzer, limit int, headOK func(a, b int) bool) (bool, bool) {
	if limit <= 0 {
		limit = 1 << 20
	}
	g := an.SG
	// Recover the clause/position structure from node labels.
	tops := map[[2]int]int{}
	m := 0
	for _, n := range g.Nodes {
		var i, j int
		if _, err := fmt.Sscanf(n.Label, "top_%d_%d", &i, &j); err == nil && n.Label == TopLabel(i, j) {
			tops[[2]int{i, j}] = n.ID
			if i+1 > m {
				m = i + 1
			}
		}
	}
	if m == 0 {
		return false, true
	}
	// linked(i, j, k) verifies the graph carries the cycle step from
	// literal (i, j) to literal ((i+1)%m, k): a control path from the top
	// to some node with a sync edge to the next top.
	linked := func(i, j, k int) bool {
		from := tops[[2]int{i, j}]
		to := tops[[2]int{(i + 1) % m, k}]
		reach := g.Control.ReachableFrom(g.Control.Succ(from)...)
		for _, s := range g.Sync.Row(to) {
			if reach[s] && g.TaskOf[s] == g.TaskOf[from] {
				return true
			}
		}
		return false
	}
	sel := make([]int, m)
	tried := 0
	complete := true
	var rec func(i int) bool
	rec = func(i int) bool {
		if tried >= limit {
			complete = false
			return false
		}
		if i == m {
			tried++
			for a := 0; a < m; a++ {
				if !linked(a, sel[a], sel[(a+1)%m]) {
					return false
				}
			}
			for a := 0; a < m; a++ {
				for b := a + 1; b < m; b++ {
					if !headOK(tops[[2]int{a, sel[a]}], tops[[2]int{b, sel[b]}]) {
						return false
					}
				}
			}
			return true
		}
		for j := 0; j < 3; j++ {
			if _, ok := tops[[2]int{i, j}]; !ok {
				continue
			}
			sel[i] = j
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0), complete
}

// BuildTheorem3 constructs the Theorem 3 sync graph for f: one task per
// literal occurrence holding a top accept and a three-way signaling group,
// sync edges from each signaling node to the corresponding top of the next
// clause group, and an artificial sync edge joining the tops of every
// positive/negative pair of tasks for the same variable.
func BuildTheorem3(f *Formula) (*sg.Graph, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	b := sg.NewBuilder()
	m := len(f.Clauses)
	tops := make([][]int, m)
	sigs := make([][][3]int, m)
	for i := range f.Clauses {
		tops[i] = make([]int, 3)
		sigs[i] = make([][3]int, 3)
		for j := 0; j < 3; j++ {
			ti := b.AddTask(litTaskName(i, j))
			sig := lang.Signal{Task: litTaskName(i, j), Msg: "top"}
			top := b.AddNode(ti, cfg.KindAccept, sig, TopLabel(i, j))
			b.AddControl(b.B(), top)
			tops[i][j] = top
			for k := 0; k < 3; k++ {
				nsig := lang.Signal{Task: litTaskName((i+1)%m, k), Msg: "top"}
				s := b.AddNode(ti, cfg.KindSend, nsig, fmt.Sprintf("sig_%d_%d_%d", i, j, k))
				b.AddControl(top, s)
				b.AddControl(s, b.E())
				sigs[i][j][k] = s
			}
		}
	}
	// Sync edges: signaling node k of clause i pairs with top k of clause
	// (i+1) mod m.
	for i := range f.Clauses {
		q := (i + 1) % m
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				b.SyncPair(sigs[i][j][k], tops[q][k])
			}
		}
	}
	// Artificial sync edges between complementary tops of one variable.
	pos, neg := occurrences(f)
	for v := 1; v <= f.NumVars; v++ {
		for _, po := range pos[v] {
			for _, no := range neg[v] {
				b.SyncPair(tops[po.i][po.j], tops[no.i][no.j])
			}
		}
	}
	return b.Finish(), nil
}
