package lang

import (
	"fmt"
	"strings"
	"testing"
)

const procProgram = `
procedure greet is
begin
  srv.hello;
  accept ok;
end;

procedure twice is
begin
  call greet;
  call greet;
end;

task client is
begin
  call twice;
end;

task srv is
begin
  accept hello;
  client.ok;
  accept hello;
  client.ok;
end;
`

func TestParseProcedures(t *testing.T) {
	p := MustParse(procProgram)
	if len(p.Procs) != 2 || len(p.Tasks) != 2 {
		t.Fatalf("procs=%d tasks=%d", len(p.Procs), len(p.Tasks))
	}
	if !p.HasCalls() {
		t.Fatal("calls not detected")
	}
}

func TestInlineCalls(t *testing.T) {
	p := MustParse(procProgram)
	q := p.InlineCalls()
	if q.HasCalls() || len(q.Procs) != 0 {
		t.Fatal("inlining left calls or procedures behind")
	}
	// client ends up with 2 copies of greet = 2 sends + 2 accepts.
	client := q.TaskByName("client")
	n := 0
	var walk func(ss []Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			switch v := s.(type) {
			case *Send, *Accept:
				n++
			case *If:
				walk(v.Then)
				walk(v.Else)
			case *Loop:
				walk(v.Body)
			}
		}
	}
	walk(client.Body)
	if n != 4 {
		t.Fatalf("client rendezvous=%d, want 4", n)
	}
	// Accept inside the procedure bound to the inlining task.
	sigs := map[Signal]bool{}
	for _, s := range q.Signals() {
		sigs[s] = true
	}
	if !sigs[Signal{Task: "client", Msg: "ok"}] {
		t.Fatalf("accept did not bind to inlining task: %v", q.Signals())
	}
	// Original untouched.
	if !p.HasCalls() {
		t.Fatal("InlineCalls mutated its input")
	}
}

func TestInlineLabelsUnique(t *testing.T) {
	p := MustParse(`
procedure pr is
begin
  r: srv.ping;
end;
task cli is
begin
  call pr;
  call pr;
end;
task srv is
begin
  accept ping;
  accept ping;
end;
`)
	q := p.InlineCalls()
	labels := map[string]bool{}
	var walk func(ss []Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			switch v := s.(type) {
			case *Send, *Accept:
				if labels[s.Label()] {
					t.Fatalf("duplicate label %q", s.Label())
				}
				labels[s.Label()] = true
			case *If:
				walk(v.Then)
				walk(v.Else)
			case *Loop:
				walk(v.Body)
			}
		}
	}
	for _, task := range q.Tasks {
		walk(task.Body)
	}
}

func TestProcValidationErrors(t *testing.T) {
	cases := []struct{ name, src, wantSub string }{
		{"unknown proc", "task a is begin call nope; end;", "unknown procedure"},
		{"direct recursion", `
procedure p is begin call p; end;
task a is begin call p; end;`, "recursive"},
		{"mutual recursion", `
procedure p is begin call q; end;
procedure q is begin call p; end;
task a is begin call p; end;`, "recursive"},
		{"duplicate proc", `
procedure p is begin null; end;
procedure p is begin null; end;
task a is begin null; end;`, "duplicate procedure"},
		{"bad send in proc", `
procedure p is begin nosuch.m; end;
task a is begin call p; end;`, "unknown task"},
		{"self send through call",
			"procedure A is begin a.A; end; task a is begin call A; end; task A is begin null; end;",
			`lang: task a at 1:22: task cannot call its own entry "A"`},
		{"self send through nested call", `
procedure p is begin if c then call q; end if; end;
procedure q is begin loop 2 times a.m; end loop; end;
task a is begin accept m; call p; end;`, `lang: task a at 3:35: task cannot call its own entry "m"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("accepted:\n%s", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q lacks %q", err, c.wantSub)
			}
		})
	}
}

func TestProcRoundTrip(t *testing.T) {
	p := MustParse(procProgram)
	printed := p.String()
	q, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, printed)
	}
	if q.String() != printed {
		t.Fatalf("unstable print:\n%s\n---\n%s", printed, q.String())
	}
}

func TestNestedProcInlining(t *testing.T) {
	// Procedures calling procedures inside control structures.
	p := MustParse(`
procedure inner is
begin
  srv.m;
end;
procedure outer is
begin
  if c then
    call inner;
  end if;
  loop 2 times
    call inner;
  end loop;
end;
task cli is
begin
  call outer;
end;
task srv is
begin
  accept m;
  accept m;
  accept m;
end;
`)
	q := p.InlineCalls()
	if q.HasCalls() {
		t.Fatal("nested calls left behind")
	}
	if got := q.CountRendezvous(); got != 2+3 {
		t.Fatalf("rendezvous=%d", got)
	}
}

// TestSelfSendCheckScansEachProcOnce validates a chain of procedures that
// each call the next one twice: inlining it would copy the last body 2^60
// times, but the self-send check scans each procedure once per task.
func TestSelfSendCheckScansEachProcOnce(t *testing.T) {
	const n = 60
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "procedure p%d is begin call p%d; call p%d; end;\n", i, i+1, i+1)
	}
	fmt.Fprintf(&b, "procedure p%d is begin a.m; end;\n", n)
	b.WriteString("task a is begin accept m; call p0; end;\n")
	_, err := Parse(b.String())
	want := fmt.Sprintf(`lang: task a at %d:24: task cannot call its own entry "m"`, n+1)
	if err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
}
