package lang

import "fmt"

// The paper's model confines rendezvous to task main procedures and names
// an interprocedural extension as future work ("we hope to extend this
// model to an interprocedural one"). MiniAda supports the standard static
// treatment: non-recursive procedures that are inlined away before
// analysis, so every downstream phase keeps seeing the intraprocedural
// model the paper defines.
//
//	procedure NAME is begin <stmts> end;
//	call NAME;
//
// Procedures may call other procedures; recursion (direct or mutual) is
// rejected at validation time. Accept statements inside a procedure bind
// to whichever task the call is inlined into.

// Proc is a procedure declaration.
type Proc struct {
	Name string
	Body []Stmt
	Pos  Pos
}

// Call invokes a procedure; InlineCalls replaces it with the body.
type Call struct {
	labeled
	Name string
	Pos  Pos
}

func (*Call) stmt() {}

// HasCalls reports whether any task still contains a call statement.
func (p *Program) HasCalls() bool {
	found := false
	var walk func(ss []Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			switch v := s.(type) {
			case *Call:
				found = true
			case *If:
				walk(v.Then)
				walk(v.Else)
			case *Loop:
				walk(v.Body)
			}
		}
	}
	for _, t := range p.Tasks {
		walk(t.Body)
	}
	return found
}

// procByName returns the named procedure or nil.
func (p *Program) procByName(name string) *Proc {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	return nil
}

// validateProcs checks that calls resolve, that the procedure call graph
// is acyclic (no recursion), and that no task reaches a send to itself
// through its calls.
func (p *Program) validateProcs() error {
	// Resolve call targets in tasks and procedures.
	var check func(where string, ss []Stmt) error
	check = func(where string, ss []Stmt) error {
		for _, s := range ss {
			switch v := s.(type) {
			case *Call:
				if p.procByName(v.Name) == nil {
					return fmt.Errorf("lang: %s at %s: call to unknown procedure %q", where, v.Pos, v.Name)
				}
			case *If:
				if err := check(where, v.Then); err != nil {
					return err
				}
				if err := check(where, v.Else); err != nil {
					return err
				}
			case *Loop:
				if err := check(where, v.Body); err != nil {
					return err
				}
			}
		}
		return nil
	}
	names := map[string]bool{}
	for _, pr := range p.Procs {
		if names[pr.Name] {
			return fmt.Errorf("lang: duplicate procedure %q", pr.Name)
		}
		names[pr.Name] = true
	}
	for _, t := range p.Tasks {
		if err := check("task "+t.Name, t.Body); err != nil {
			return err
		}
	}
	for _, pr := range p.Procs {
		if err := check("procedure "+pr.Name, pr.Body); err != nil {
			return err
		}
	}
	// Recursion check: DFS over the procedure call graph.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(name string) error
	visit = func(name string) error {
		color[name] = gray
		pr := p.procByName(name)
		var scan func(ss []Stmt) error
		scan = func(ss []Stmt) error {
			for _, s := range ss {
				switch v := s.(type) {
				case *Call:
					switch color[v.Name] {
					case gray:
						return fmt.Errorf("lang: recursive procedure %q (via %q)", v.Name, name)
					case white:
						if err := visit(v.Name); err != nil {
							return err
						}
					}
				case *If:
					if err := scan(v.Then); err != nil {
						return err
					}
					if err := scan(v.Else); err != nil {
						return err
					}
				case *Loop:
					if err := scan(v.Body); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if err := scan(pr.Body); err != nil {
			return err
		}
		color[name] = black
		return nil
	}
	for _, pr := range p.Procs {
		if color[pr.Name] == white {
			if err := visit(pr.Name); err != nil {
				return err
			}
		}
	}
	for _, t := range p.Tasks {
		if err := p.checkSelfSends(t, t.Body, map[string]bool{}); err != nil {
			return err
		}
	}
	return nil
}

// checkSelfSends reports a send to task t in ss or in any procedure that
// ss reaches through calls, as inlining into t would produce it. seen
// holds the procedures already scanned for t: each is scanned once,
// however many call sites reach it, so a chain of procedures that each
// call the next twice costs linear time, not the exponential size of its
// inlining. Calls must already resolve.
func (p *Program) checkSelfSends(t *Task, ss []Stmt, seen map[string]bool) error {
	for _, s := range ss {
		var err error
		switch v := s.(type) {
		case *Send:
			if v.Target == t.Name {
				return fmt.Errorf("lang: task %s at %s: task cannot call its own entry %q", t.Name, v.Pos, v.Msg)
			}
		case *Call:
			if !seen[v.Name] {
				seen[v.Name] = true
				err = p.checkSelfSends(t, p.procByName(v.Name).Body, seen)
			}
		case *If:
			if err = p.checkSelfSends(t, v.Then, seen); err == nil {
				err = p.checkSelfSends(t, v.Else, seen)
			}
		case *Loop:
			err = p.checkSelfSends(t, v.Body, seen)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// InlineCalls returns a copy of p with every call statement replaced by
// the called procedure's body, recursively. Labels of inlined rendezvous
// get per-call-site suffixes so node names stay unique. The result has no
// procedures and no calls.
func (p *Program) InlineCalls() *Program {
	q := p.Clone()
	site := 0
	var inline func(ss []Stmt) []Stmt
	inline = func(ss []Stmt) []Stmt {
		var out []Stmt
		for _, s := range ss {
			switch v := s.(type) {
			case *Call:
				pr := q.procByName(v.Name)
				site++
				body := cloneStmts(pr.Body)
				suffixLabels(body, fmt.Sprintf("@%s%d", v.Name, site))
				out = append(out, inline(body)...)
			case *If:
				v.Then = inline(v.Then)
				v.Else = inline(v.Else)
				out = append(out, v)
			case *Loop:
				v.Body = inline(v.Body)
				out = append(out, v)
			default:
				out = append(out, s)
			}
		}
		return out
	}
	for _, t := range q.Tasks {
		t.Body = inline(t.Body)
	}
	q.Procs = nil
	q.AssignLabels()
	return q
}

func suffixLabels(ss []Stmt, suffix string) {
	var walk func(ss []Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			switch v := s.(type) {
			case *Send, *Accept:
				if s.Label() != "" {
					s.SetLabel(s.Label() + suffix)
				}
			case *If:
				walk(v.Then)
				walk(v.Else)
			case *Loop:
				walk(v.Body)
			case *Call:
				_ = v
			}
		}
	}
	walk(ss)
}
