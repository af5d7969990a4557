package cfg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/lang"
)

func build(t *testing.T, src string) *ProgramCFG {
	t.Helper()
	pc, err := Build(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

func TestStraightLineCFG(t *testing.T) {
	pc := build(t, `
task a is
begin
  b.m;
  null;
  accept q;
end;
task b is
begin
  accept m;
  a.q;
end;
`)
	ta := pc.Task("a")
	if len(ta.Nodes) != 4 { // entry, exit, send, accept
		t.Fatalf("nodes=%d", len(ta.Nodes))
	}
	rv := ta.Rendezvous()
	if len(rv) != 2 || rv[0].Kind != KindSend || rv[1].Kind != KindAccept {
		t.Fatalf("rendezvous=%v", rv)
	}
	// entry -> send -> accept -> exit (null collapsed away).
	if !ta.G.HasEdge(ta.Entry, rv[0].ID) || !ta.G.HasEdge(rv[0].ID, rv[1].ID) || !ta.G.HasEdge(rv[1].ID, ta.Exit) {
		t.Fatalf("chain edges missing: %s", ta.G)
	}
	if ta.G.M() != 3 {
		t.Fatalf("M=%d, want 3", ta.G.M())
	}
	if ta.HasLoops() {
		t.Fatal("straight line reported loops")
	}
}

func TestEmptyTaskCFG(t *testing.T) {
	pc := build(t, `
task a is
begin
  null;
end;
task b is
begin
  null;
end;
`)
	ta := pc.Task("a")
	if !ta.G.HasEdge(ta.Entry, ta.Exit) {
		t.Fatal("entry->exit edge missing for rendezvous-free task")
	}
	if pc.NumRendezvous() != 0 {
		t.Fatal("phantom rendezvous")
	}
}

func TestBranchCFG(t *testing.T) {
	pc := build(t, `
task a is
begin
  if c then
    b.m;
  else
    b.n;
  end if;
  accept q;
end;
task b is
begin
  accept m;
  accept n;
  a.q;
end;
`)
	ta := pc.Task("a")
	var send1, send2, acc *Node
	for _, n := range ta.Rendezvous() {
		switch {
		case n.Kind == KindSend && n.Sig.Msg == "m":
			send1 = n
		case n.Kind == KindSend && n.Sig.Msg == "n":
			send2 = n
		case n.Kind == KindAccept:
			acc = n
		}
	}
	// Diamond: entry -> each send -> accept -> exit.
	for _, s := range []*Node{send1, send2} {
		if !ta.G.HasEdge(ta.Entry, s.ID) || !ta.G.HasEdge(s.ID, acc.ID) {
			t.Fatalf("branch wiring wrong for %v", s)
		}
	}
	if ta.G.HasEdge(send1.ID, send2.ID) || ta.G.HasEdge(send2.ID, send1.ID) {
		t.Fatal("exclusive branches connected")
	}
}

func TestEmptyElseSkipsNode(t *testing.T) {
	pc := build(t, `
task a is
begin
  if c then
    b.m;
  end if;
  accept q;
end;
task b is
begin
  accept m;
  a.q;
end;
`)
	ta := pc.Task("a")
	var send, acc *Node
	for _, n := range ta.Rendezvous() {
		if n.Kind == KindSend {
			send = n
		} else {
			acc = n
		}
	}
	// Skip path: entry -> accept directly.
	if !ta.G.HasEdge(ta.Entry, acc.ID) {
		t.Fatal("skip edge missing")
	}
	if !ta.G.HasEdge(ta.Entry, send.ID) || !ta.G.HasEdge(send.ID, acc.ID) {
		t.Fatal("taken path missing")
	}
}

func TestLoopCFGHasBackEdge(t *testing.T) {
	pc := build(t, `
task a is
begin
  while w loop
    b.m;
    accept q;
  end loop;
end;
task b is
begin
  accept m;
  a.q;
end;
`)
	ta := pc.Task("a")
	if !ta.HasLoops() {
		t.Fatal("loop not reflected in CFG")
	}
	var send, acc *Node
	for _, n := range ta.Rendezvous() {
		if n.Kind == KindSend {
			send = n
		} else {
			acc = n
		}
	}
	if !ta.G.HasEdge(acc.ID, send.ID) {
		t.Fatal("back edge accept->send missing")
	}
	// Zero-iteration path.
	if !ta.G.HasEdge(ta.Entry, ta.Exit) {
		t.Fatal("loop skip edge missing")
	}
	if !IsReducible(ta.G, ta.Entry) {
		t.Fatal("structured loop must be reducible")
	}
}

func TestIsReducibleRejectsIrreducible(t *testing.T) {
	// Classic irreducible graph: entry -> a, entry -> b, a <-> b.
	g := graph.FromEdges(3, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 1}})
	if IsReducible(g, 0) {
		t.Fatal("irreducible graph accepted")
	}
}

func TestUnrollRemovesLoops(t *testing.T) {
	p := lang.MustParse(`
task a is
begin
  loop 5 times
    b.m;
  end loop;
  while w loop
    accept q;
  end loop;
end;
task b is
begin
  loop
    accept m;
    a.q;
  end loop;
end;
`)
	u := Unroll(p)
	if HasLoops(u) {
		t.Fatal("unrolled program still has loops")
	}
	pc, err := Build(u)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range pc.Tasks {
		if tc.HasLoops() {
			t.Fatalf("task %s CFG cyclic after unroll", tc.Task)
		}
	}
	// Input untouched.
	if !HasLoops(p) {
		t.Fatal("Unroll mutated its input")
	}
}

func TestUnrollDuplicatesBodyTwice(t *testing.T) {
	p := lang.MustParse(`
task a is
begin
  while w loop
    b.m;
  end loop;
end;
task b is
begin
  accept m;
  accept m;
end;
`)
	u := Unroll(p)
	// One send becomes two copies.
	n := 0
	var count func(ss []lang.Stmt)
	count = func(ss []lang.Stmt) {
		for _, s := range ss {
			switch v := s.(type) {
			case *lang.Send:
				n++
			case *lang.If:
				count(v.Then)
				count(v.Else)
			case *lang.Loop:
				count(v.Body)
			}
		}
	}
	count(u.TaskByName("a").Body)
	if n != 2 {
		t.Fatalf("send copies=%d, want 2", n)
	}
}

func TestUnrollCountOne(t *testing.T) {
	p := lang.MustParse(`
task a is
begin
  loop 1 times
    b.m;
  end loop;
end;
task b is
begin
  accept m;
end;
`)
	u := Unroll(p)
	if u.CountRendezvous() != 2 {
		t.Fatalf("count-1 loop should unroll to single copy, got %d rendezvous", u.CountRendezvous())
	}
}

func TestUnrollNestedGrowth(t *testing.T) {
	// Nested while loops: each level doubles the kernel.
	src := `
task a is
begin
  while w1 loop
    while w2 loop
      while w3 loop
        b.m;
      end loop;
    end loop;
  end loop;
end;
task b is
begin
  accept m;
end;
`
	u := Unroll(lang.MustParse(src))
	// One send in task a becomes 2^3 copies.
	if got := u.TaskByName("a"); got == nil {
		t.Fatal("task missing")
	}
	n := countSends(u.TaskByName("a").Body)
	if n != 8 {
		t.Fatalf("nested unroll produced %d copies, want 8", n)
	}
}

func countSends(ss []lang.Stmt) int {
	n := 0
	for _, s := range ss {
		switch v := s.(type) {
		case *lang.Send:
			n++
		case *lang.If:
			n += countSends(v.Then) + countSends(v.Else)
		case *lang.Loop:
			n += countSends(v.Body)
		}
	}
	return n
}

func TestExpandBounded(t *testing.T) {
	p := lang.MustParse(`
task a is
begin
  loop 3 times
    b.m;
  end loop;
  while w loop
    accept q;
  end loop;
end;
task b is
begin
  accept m;
  accept m;
  accept m;
  a.q;
end;
`)
	e, err := ExpandBounded(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := countSends(e.TaskByName("a").Body); n != 3 {
		t.Fatalf("bounded expansion gave %d sends, want 3", n)
	}
	// While loop survives.
	if !HasLoops(e) {
		t.Fatal("while loop should remain")
	}
	// Limit enforcement.
	big := lang.MustParse(`
task a is
begin
  loop 100 times
    b.m;
  end loop;
end;
task b is
begin
  accept m;
end;
`)
	if _, err := ExpandBounded(big, 10); err == nil {
		t.Fatal("limit not enforced")
	}
}

func TestMaxLoopDepth(t *testing.T) {
	p := lang.MustParse(`
task a is
begin
  while x loop
    if c then
      while y loop
        b.m;
      end loop;
    end if;
  end loop;
end;
task b is
begin
  accept m;
end;
`)
	if d := MaxLoopDepth(p); d != 2 {
		t.Fatalf("depth=%d, want 2", d)
	}
}

func TestQuickUnrollPreservesSignalSet(t *testing.T) {
	// Property: unrolling never invents or loses signal types.
	cfgq := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomLoopyProgram(rng)
		u := Unroll(p)
		if HasLoops(u) {
			return false
		}
		s1, s2 := p.Signals(), u.Signals()
		if len(s1) != len(s2) {
			return false
		}
		set := map[lang.Signal]bool{}
		for _, s := range s1 {
			set[s] = true
		}
		for _, s := range s2 {
			if !set[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfgq); err != nil {
		t.Fatal(err)
	}
}

func randomLoopyProgram(rng *rand.Rand) *lang.Program {
	p := &lang.Program{}
	names := []string{"t0", "t1", "t2"}
	for i, name := range names {
		var gen func(depth int) []lang.Stmt
		gen = func(depth int) []lang.Stmt {
			var out []lang.Stmt
			for j := 0; j < 1+rng.Intn(3); j++ {
				switch {
				case depth < 2 && rng.Float64() < 0.3:
					out = append(out, &lang.Loop{Count: rng.Intn(3), Body: gen(depth + 1)})
				case depth < 2 && rng.Float64() < 0.3:
					out = append(out, &lang.If{Then: gen(depth + 1), Else: gen(depth + 1)})
				case rng.Intn(2) == 0:
					out = append(out, &lang.Accept{Msg: "m"})
				default:
					out = append(out, &lang.Send{Target: names[(i+1+rng.Intn(2))%3], Msg: "m"})
				}
			}
			return out
		}
		p.Tasks = append(p.Tasks, &lang.Task{Name: name, Body: gen(0)})
	}
	p.AssignLabels()
	return p
}
