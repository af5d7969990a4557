// Package lang implements MiniAda, the small Ada-like tasking language the
// paper's model is defined over: statically created tasks communicating by
// barrier rendezvous through entry calls (sends) and accepts, with
// conditional branching and reducible loops but no select statements.
//
// A program is a set of tasks. Statements:
//
//	target.msg;                 -- entry call: send signal (target, msg)
//	accept msg;                 -- accept signal (self, msg)
//	if [cond] then ... [else ...] end if;
//	loop [N times] ... end loop;
//	while [cond] loop ... end loop;
//	null;
//
// Any statement may carry a label ("l1: accept msg;") so that tests and
// reports can name individual rendezvous points.
package lang

import (
	"fmt"
	"strconv"
	"strings"
	"unsafe"
)

// Pos is a source position (1-based line and column).
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Program is a parsed MiniAda program. Procs hold procedure declarations
// until InlineCalls expands them into the task bodies (see proc.go).
type Program struct {
	Tasks []*Task
	Procs []*Proc
}

// Task is one statically created task with a straight body of statements.
type Task struct {
	Name string
	Body []Stmt
	Pos  Pos
}

// Stmt is any MiniAda statement.
type Stmt interface {
	// Label returns the user or auto-assigned label, empty if none.
	Label() string
	// SetLabel attaches a label.
	SetLabel(string)
	stmt()
}

type labeled struct {
	Lbl string
}

func (l *labeled) Label() string     { return l.Lbl }
func (l *labeled) SetLabel(s string) { l.Lbl = s }

// Send is an entry call: the executing task signals (Target, Msg).
type Send struct {
	labeled
	Target string
	Msg    string
	Pos    Pos
}

// Accept waits for any task to signal (self, Msg).
type Accept struct {
	labeled
	Msg string
	Pos Pos
}

// If is a two-way conditional with an opaque condition name.
type If struct {
	labeled
	Cond string // informational only; conditions are opaque to analysis
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

// Loop is a reducible loop. Count > 0 bounds the iterations (used by the
// wave simulator); Count == 0 means statically unknown (0 or more).
// AtLeastOnce records "loop ... end loop" Ada semantics (the body runs at
// least once) versus while-style zero-or-more.
type Loop struct {
	labeled
	Count       int
	AtLeastOnce bool
	Cond        string // for while loops; informational
	Body        []Stmt
	Pos         Pos
}

// Null is a no-op placeholder statement.
type Null struct {
	labeled
	Pos Pos
}

func (*Send) stmt()   {}
func (*Accept) stmt() {}
func (*If) stmt()     {}
func (*Loop) stmt()   {}
func (*Null) stmt()   {}

// TaskByName returns the named task or nil.
func (p *Program) TaskByName(name string) *Task {
	for _, t := range p.Tasks {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Clone deep-copies the program (transforms mutate copies, never inputs).
func (p *Program) Clone() *Program {
	q := &Program{Tasks: make([]*Task, len(p.Tasks)), Procs: make([]*Proc, len(p.Procs))}
	for i, t := range p.Tasks {
		q.Tasks[i] = &Task{Name: t.Name, Body: cloneStmts(t.Body), Pos: t.Pos}
	}
	for i, pr := range p.Procs {
		q.Procs[i] = &Proc{Name: pr.Name, Body: cloneStmts(pr.Body), Pos: pr.Pos}
	}
	return q
}

// CloneStmts deep-copies a statement list.
func CloneStmts(ss []Stmt) []Stmt { return cloneStmts(ss) }

func cloneStmts(ss []Stmt) []Stmt {
	out := make([]Stmt, len(ss))
	for i, s := range ss {
		out[i] = cloneStmt(s)
	}
	return out
}

func cloneStmt(s Stmt) Stmt {
	switch v := s.(type) {
	case *Send:
		c := *v
		return &c
	case *Accept:
		c := *v
		return &c
	case *Null:
		c := *v
		return &c
	case *If:
		c := *v
		c.Then = cloneStmts(v.Then)
		c.Else = cloneStmts(v.Else)
		return &c
	case *Loop:
		c := *v
		c.Body = cloneStmts(v.Body)
		return &c
	case *Call:
		c := *v
		return &c
	default:
		panic(fmt.Sprintf("lang: unknown statement %T", s))
	}
}

// Validate checks static semantic rules: unique task names, send targets
// that exist, and non-empty program.
func (p *Program) Validate() error {
	if len(p.Tasks) == 0 {
		return fmt.Errorf("lang: program has no tasks")
	}
	names := map[string]bool{}
	for _, t := range p.Tasks {
		if names[t.Name] {
			return fmt.Errorf("lang: duplicate task %q", t.Name)
		}
		names[t.Name] = true
	}
	for _, t := range p.Tasks {
		if err := validateStmts(t, t.Body, names); err != nil {
			return err
		}
	}
	for _, pr := range p.Procs {
		// Sends inside procedures must still target real tasks; the
		// self-call check needs the calling task, so validateProcs runs
		// it per task through the calls.
		if err := validateStmts(&Task{Name: ""}, pr.Body, names); err != nil {
			return err
		}
	}
	return p.validateProcs()
}

func validateStmts(t *Task, ss []Stmt, tasks map[string]bool) error {
	for _, s := range ss {
		switch v := s.(type) {
		case *Send:
			if !tasks[v.Target] {
				return fmt.Errorf("lang: task %s at %s: send to unknown task %q", t.Name, v.Pos, v.Target)
			}
			if v.Target == t.Name {
				return fmt.Errorf("lang: task %s at %s: task cannot call its own entry %q", t.Name, v.Pos, v.Msg)
			}
		case *If:
			if err := validateStmts(t, v.Then, tasks); err != nil {
				return err
			}
			if err := validateStmts(t, v.Else, tasks); err != nil {
				return err
			}
		case *Loop:
			if v.Count < 0 {
				return fmt.Errorf("lang: task %s at %s: negative loop count", t.Name, v.Pos)
			}
			if err := validateStmts(t, v.Body, tasks); err != nil {
				return err
			}
		}
	}
	return nil
}

// AssignLabels gives every unlabeled rendezvous statement a deterministic
// label of the form task.kN (k = "s" send, "a" accept) so analyses can
// report stable node names. Existing labels are preserved.
func (p *Program) AssignLabels() {
	for _, t := range p.Tasks {
		n := 0
		var walk func(ss []Stmt)
		walk = func(ss []Stmt) {
			for _, s := range ss {
				switch v := s.(type) {
				case *Send:
					n++
					if v.Lbl == "" {
						v.Lbl = t.Name + ".s" + strconv.Itoa(n)
					}
				case *Accept:
					n++
					if v.Lbl == "" {
						v.Lbl = t.Name + ".a" + strconv.Itoa(n)
					}
				case *If:
					walk(v.Then)
					walk(v.Else)
				case *Loop:
					walk(v.Body)
				}
			}
		}
		walk(t.Body)
	}
}

// CountRendezvous returns the total number of send/accept statements.
func (p *Program) CountRendezvous() int {
	n := 0
	for _, t := range p.Tasks {
		n += countRendezvous(t.Body)
	}
	return n
}

func countRendezvous(ss []Stmt) int {
	n := 0
	for _, s := range ss {
		switch v := s.(type) {
		case *Send, *Accept:
			n++
		case *If:
			n += countRendezvous(v.Then) + countRendezvous(v.Else)
		case *Loop:
			n += countRendezvous(v.Body)
		}
		_ = s
	}
	return n
}

// CountSyncEdges returns the number of sync edges the program's sync
// graph will hold: per signal type, its sends times its accepts. It
// predicts the graph's size without building it.
func (p *Program) CountSyncEdges() int64 {
	sends, accepts := map[Signal]int64{}, map[Signal]int64{}
	var walk func(task string, ss []Stmt)
	walk = func(task string, ss []Stmt) {
		for _, s := range ss {
			switch v := s.(type) {
			case *Send:
				sends[Signal{Task: v.Target, Msg: v.Msg}]++
			case *Accept:
				accepts[Signal{Task: task, Msg: v.Msg}]++
			case *If:
				walk(task, v.Then)
				walk(task, v.Else)
			case *Loop:
				walk(task, v.Body)
			}
		}
	}
	for _, t := range p.Tasks {
		walk(t.Name, t.Body)
	}
	var n int64
	for sig, k := range sends {
		n += k * accepts[sig]
	}
	return n
}

// CountStatements returns the total number of statements, counting
// nested conditional and loop bodies.
func (p *Program) CountStatements() int {
	n := 0
	for _, t := range p.Tasks {
		n += countStatements(t.Body)
	}
	return n
}

func countStatements(ss []Stmt) int {
	n := len(ss)
	for _, s := range ss {
		switch v := s.(type) {
		case *If:
			n += countStatements(v.Then) + countStatements(v.Else)
		case *Loop:
			n += countStatements(v.Body)
		}
	}
	return n
}

// SizeEstimate approximates the program's resident footprint in bytes,
// for byte-budgeted caches: every task, procedure and statement node,
// each statement list at its capacity, and label strings. Identifiers
// that are substrings of the parsed source are not counted here; the
// source text is the caller's to count.
func (p *Program) SizeEstimate() int64 {
	sz := int64(unsafe.Sizeof(*p)) + int64(cap(p.Tasks)+cap(p.Procs))*8
	for _, t := range p.Tasks {
		sz += int64(unsafe.Sizeof(*t)) + stmtsSize(t.Body)
	}
	for _, pr := range p.Procs {
		sz += int64(unsafe.Sizeof(*pr)) + stmtsSize(pr.Body)
	}
	return sz
}

// stmtsSize is the footprint of a statement list: the interface slots at
// the slice's capacity plus each node, its label and nested lists.
func stmtsSize(ss []Stmt) int64 {
	sz := int64(cap(ss)) * int64(unsafe.Sizeof(Stmt(nil)))
	for _, s := range ss {
		sz += (int64(len(s.Label())) + 7) &^ 7
		switch v := s.(type) {
		case *Send:
			sz += int64(unsafe.Sizeof(*v))
		case *Accept:
			sz += int64(unsafe.Sizeof(*v))
		case *Null:
			sz += int64(unsafe.Sizeof(*v))
		case *Call:
			sz += int64(unsafe.Sizeof(*v))
		case *If:
			sz += int64(unsafe.Sizeof(*v)) + stmtsSize(v.Then) + stmtsSize(v.Else)
		case *Loop:
			sz += int64(unsafe.Sizeof(*v)) + stmtsSize(v.Body)
		}
	}
	return sz
}

// Signal identifies a rendezvous channel: the receiving task and message.
type Signal struct {
	Task string // receiving task
	Msg  string // message type
}

func (sg Signal) String() string { return sg.Task + "." + sg.Msg }

// Signals returns all distinct signals appearing in the program, in a
// deterministic order.
func (p *Program) Signals() []Signal {
	seen := map[Signal]bool{}
	var out []Signal
	add := func(s Signal) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, t := range p.Tasks {
		var walk func(ss []Stmt)
		walk = func(ss []Stmt) {
			for _, s := range ss {
				switch v := s.(type) {
				case *Send:
					add(Signal{v.Target, v.Msg})
				case *Accept:
					add(Signal{t.Name, v.Msg})
				case *If:
					walk(v.Then)
					walk(v.Else)
				case *Loop:
					walk(v.Body)
				}
			}
		}
		walk(t.Body)
	}
	return out
}

// String renders the program as parseable MiniAda source.
func (p *Program) String() string {
	var b strings.Builder
	for i, pr := range p.Procs {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "procedure %s is\nbegin\n", pr.Name)
		printStmts(&b, pr.Body, 1)
		b.WriteString("end;\n")
	}
	for i, t := range p.Tasks {
		if i > 0 || len(p.Procs) > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "task %s is\nbegin\n", t.Name)
		printStmts(&b, t.Body, 1)
		b.WriteString("end;\n")
	}
	return b.String()
}

func printStmts(b *strings.Builder, ss []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range ss {
		lbl := ""
		if s.Label() != "" && isIdent(s.Label()) {
			lbl = s.Label() + ": "
		}
		switch v := s.(type) {
		case *Send:
			fmt.Fprintf(b, "%s%s%s.%s;\n", ind, lbl, v.Target, v.Msg)
		case *Accept:
			fmt.Fprintf(b, "%s%saccept %s;\n", ind, lbl, v.Msg)
		case *Null:
			fmt.Fprintf(b, "%s%snull;\n", ind, lbl)
		case *Call:
			fmt.Fprintf(b, "%s%scall %s;\n", ind, lbl, v.Name)
		case *If:
			cond := v.Cond
			if cond == "" {
				cond = "cond"
			}
			fmt.Fprintf(b, "%s%sif %s then\n", ind, lbl, cond)
			printStmts(b, v.Then, depth+1)
			if len(v.Else) > 0 {
				fmt.Fprintf(b, "%selse\n", ind)
				printStmts(b, v.Else, depth+1)
			}
			fmt.Fprintf(b, "%send if;\n", ind)
		case *Loop:
			switch {
			case v.Count > 0:
				fmt.Fprintf(b, "%s%sloop %d times\n", ind, lbl, v.Count)
			case !v.AtLeastOnce:
				cond := v.Cond
				if cond == "" {
					cond = "cond"
				}
				fmt.Fprintf(b, "%s%swhile %s loop\n", ind, lbl, cond)
			default:
				fmt.Fprintf(b, "%s%sloop\n", ind, lbl)
			}
			printStmts(b, v.Body, depth+1)
			fmt.Fprintf(b, "%send loop;\n", ind)
		}
	}
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
