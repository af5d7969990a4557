package sg

import (
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/lang"
)

const handshake = `
task t1 is
begin
  r: t2.sig1;
  s: accept sig2;
end;
task t2 is
begin
  u: accept sig1;
  v: t1.sig2;
end;
`

func TestBuildHandshake(t *testing.T) {
	g := MustFromProgram(lang.MustParse(handshake))
	if g.N() != 6 { // b, e, r, s, u, v
		t.Fatalf("N=%d", g.N())
	}
	if g.B != 0 || g.E != 1 {
		t.Fatal("distinguished ids moved")
	}
	r, s, u, v := g.NodeByLabel("r"), g.NodeByLabel("s"), g.NodeByLabel("u"), g.NodeByLabel("v")
	for _, id := range []int{r, s, u, v} {
		if id < 0 {
			t.Fatal("label lookup failed")
		}
	}
	// Signal types.
	if g.Nodes[r].Sig != (lang.Signal{Task: "t2", Msg: "sig1"}) || g.Nodes[r].Kind != cfg.KindSend {
		t.Fatalf("r=%v", g.Nodes[r])
	}
	if g.Nodes[s].Sig != (lang.Signal{Task: "t1", Msg: "sig2"}) || g.Nodes[s].Kind != cfg.KindAccept {
		t.Fatalf("s=%v", g.Nodes[s])
	}
	// Sync edges: {r,u} and {s,v} only.
	if g.NumSyncEdges() != 2 {
		t.Fatalf("sync edges=%d", g.NumSyncEdges())
	}
	if !g.HasSyncEdge(r, u) || !g.HasSyncEdge(s, v) || g.HasSyncEdge(r, v) {
		t.Fatal("sync edge wiring wrong")
	}
	// Control: b->r->s->e; b->u->v->e.
	for _, e := range [][2]int{{g.B, r}, {r, s}, {s, g.E}, {g.B, u}, {u, v}, {v, g.E}} {
		if !g.Control.HasEdge(e[0], e[1]) {
			t.Fatalf("control edge %v missing", e)
		}
	}
	if g.NumControlEdges() != 6 {
		t.Fatalf("control edges=%d", g.NumControlEdges())
	}
}

func TestComplementary(t *testing.T) {
	g := MustFromProgram(lang.MustParse(handshake))
	r, u := &g.Nodes[g.NodeByLabel("r")], &g.Nodes[g.NodeByLabel("u")]
	s := &g.Nodes[g.NodeByLabel("s")]
	if !r.Complementary(u) || !u.Complementary(r) {
		t.Fatal("complementary pair not recognized")
	}
	if r.Complementary(s) {
		t.Fatal("different signals marked complementary")
	}
}

func TestManyToManySyncEdges(t *testing.T) {
	g := MustFromProgram(lang.MustParse(`
task a is
begin
  b.m;
  b.m;
end;
task b is
begin
  accept m;
  accept m;
end;
`))
	// 2 sends x 2 accepts = 4 edges.
	if g.NumSyncEdges() != 4 {
		t.Fatalf("sync edges=%d, want 4", g.NumSyncEdges())
	}
}

func TestTaskOfAndTaskNodes(t *testing.T) {
	g := MustFromProgram(lang.MustParse(handshake))
	t1 := g.TaskIndex("t1")
	if t1 < 0 || g.TaskIndex("nope") != -1 {
		t.Fatal("TaskIndex wrong")
	}
	nodes := g.TaskNodes(t1)
	if len(nodes) != 2 {
		t.Fatalf("t1 nodes=%v", nodes)
	}
	for _, id := range nodes {
		if g.TaskOf[id] != t1 {
			t.Fatal("TaskOf inconsistent")
		}
	}
}

func TestInitialNodes(t *testing.T) {
	g := MustFromProgram(lang.MustParse(`
task a is
begin
  if c then
    b.m;
  else
    b.n;
  end if;
end;
task b is
begin
  accept m;
  accept n;
end;
task idle is
begin
  null;
end;
`))
	ai := g.TaskIndex("a")
	init := g.InitialNodes(ai)
	if len(init) != 2 {
		t.Fatalf("a initial=%v, want both branch sends", init)
	}
	idle := g.TaskIndex("idle")
	init = g.InitialNodes(idle)
	if len(init) != 1 || init[0] != g.E {
		t.Fatalf("idle initial=%v, want [e]", init)
	}
	// Conditional-skip task: can start at first node or at e.
	g2 := MustFromProgram(lang.MustParse(`
task a is
begin
  if c then
    b.m;
  end if;
end;
task b is
begin
  accept m;
end;
`))
	init = g2.InitialNodes(g2.TaskIndex("a"))
	hasE := false
	for _, v := range init {
		if v == g2.E {
			hasE = true
		}
	}
	if len(init) != 2 || !hasE {
		t.Fatalf("skippable task initial=%v", init)
	}
}

func TestBuilderRoundTrip(t *testing.T) {
	b := NewBuilder()
	ta := b.AddTask("A")
	tb := b.AddTask("B")
	n1 := b.AddNode(ta, cfg.KindAccept, lang.Signal{Task: "A", Msg: "m"}, "n1")
	n2 := b.AddNode(tb, cfg.KindSend, lang.Signal{Task: "A", Msg: "m"}, "n2")
	b.AddControl(b.B(), n1)
	b.AddControl(n1, b.E())
	b.AddControl(b.B(), n2)
	b.AddControl(n2, b.E())
	b.SyncPair(n1, n2)
	g := b.Finish()
	if !g.HasSyncEdge(n1, n2) || !g.HasSyncEdge(n2, n1) {
		t.Fatal("builder sync edge missing")
	}
	if g.NodeByLabel("n1") != n1 {
		t.Fatal("builder label lookup broken")
	}
	if g.TaskOf[n1] != ta || g.TaskOf[n2] != tb {
		t.Fatal("builder TaskOf wrong")
	}
}

func TestDOTOutput(t *testing.T) {
	g := MustFromProgram(lang.MustParse(handshake))
	dot := g.DOT()
	for _, want := range []string{"graph sync", "style=dashed", "dir=forward"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestUnrolledLoopGraphIsAcyclic(t *testing.T) {
	p := lang.MustParse(`
task a is
begin
  while w loop
    b.m;
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
	g := MustFromProgram(cfg.Unroll(p))
	if cyc, _ := g.Control.HasCycle(); cyc {
		t.Fatal("unrolled sync graph has control cycles")
	}
	// The raw program's graph does have cycles.
	g2 := MustFromProgram(p)
	if cyc, _ := g2.Control.HasCycle(); !cyc {
		t.Fatal("loopy program lost its control cycle")
	}
}
