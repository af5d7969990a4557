package order

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/sg"
)

func compute(t *testing.T, src string) (*sg.Graph, *Info) {
	t.Helper()
	g := sg.MustFromProgram(lang.MustParse(src))
	return g, Compute(g)
}

func TestRule1Dominance(t *testing.T) {
	g, info := compute(t, `
task t1 is
begin
  a: t2.m;
  b: t2.m;
end;
task t2 is
begin
  c: accept m;
  d: accept m;
end;
`)
	a, b := g.NodeByLabel("a"), g.NodeByLabel("b")
	c, d := g.NodeByLabel("c"), g.NodeByLabel("d")
	if !info.Precede.Get(a, b) || info.Precede.Get(b, a) {
		t.Fatal("straight-line dominance ordering wrong")
	}
	if !info.Precede.Get(c, d) {
		t.Fatal("accept ordering missing")
	}
	if !info.Sequenceable(a, b) || !info.Sequenceable(b, a) {
		t.Fatal("Sequenceable not symmetric")
	}
}

func TestBranchesNotDominated(t *testing.T) {
	g, info := compute(t, `
task t1 is
begin
  if c then
    a: t2.m;
  else
    b: t2.m;
  end if;
end;
task t2 is
begin
  accept m;
end;
`)
	a, b := g.NodeByLabel("a"), g.NodeByLabel("b")
	if info.Precede.Get(a, b) || info.Precede.Get(b, a) {
		t.Fatal("exclusive branches must not be ordered")
	}
	if !info.NotCoexec.Get(a, b) {
		t.Fatal("exclusive branches must be NOT-COEXEC")
	}
}

func TestRule2SyncPropagation(t *testing.T) {
	// Figure 1 narrative: s can rendezvous only with v, s follows r, so v
	// executes after r. Here: t1=[r; s], t2=[u; v] with s<->v unique
	// partners and r before s.
	g, info := compute(t, `
task t1 is
begin
  r: accept m1;
  s: accept m2;
end;
task t2 is
begin
  u: t1.m1;
  v: t1.m2;
end;
`)
	r, v := g.NodeByLabel("r"), g.NodeByLabel("v")
	s, u := g.NodeByLabel("s"), g.NodeByLabel("u")
	// v's unique partner is s and r precedes s => v cannot finish before
	// r... the rule derives r < v through: partners(v)={s}? No — rule 2
	// derives X < t when all partners of X precede t. partners(r)={u},
	// u < v by rule 1 => r < v.
	if !info.Precede.Get(r, v) {
		t.Fatal("rule 2 failed to derive r < v")
	}
	if !info.Precede.Get(u, s) {
		t.Fatal("rule 2 failed to derive u < s (symmetric)")
	}
	if info.Precede.Get(v, r) {
		t.Fatal("impossible ordering derived")
	}
}

func TestTransitivity(t *testing.T) {
	g, info := compute(t, `
task t1 is
begin
  a: accept m1;
  b: accept m2;
  c: accept m3;
end;
task t2 is
begin
  x: t1.m1;
  y: t1.m2;
  z: t1.m3;
end;
`)
	a, z := g.NodeByLabel("a"), g.NodeByLabel("z")
	// a < b < c within t1 and rule 2 chains through partners; a < z must
	// come out via transitivity: partners(a)={x}, x<y<z => a<z.
	if !info.Precede.Get(a, z) {
		t.Fatal("transitive chain a < z missing")
	}
}

func TestPartnersNeverOrdered(t *testing.T) {
	g, info := compute(t, `
task t1 is
begin
  a: accept m;
end;
task t2 is
begin
  x: t1.m;
end;
`)
	a, x := g.NodeByLabel("a"), g.NodeByLabel("x")
	if info.Sequenceable(a, x) {
		t.Fatal("rendezvous partners must not be sequenceable")
	}
}

func TestCoAccept(t *testing.T) {
	g, info := compute(t, `
task t1 is
begin
  a: accept m;
  b: accept m;
  c: accept other;
end;
task t2 is
begin
  t1.m;
  t1.m;
  t1.other;
end;
`)
	a, b, c := g.NodeByLabel("a"), g.NodeByLabel("b"), g.NodeByLabel("c")
	if len(info.CoAccept.Row(a)) != 1 || info.CoAccept.Row(a)[0] != b {
		t.Fatalf("CoAccept[a]=%v", info.CoAccept.Row(a))
	}
	if len(info.CoAccept.Row(c)) != 0 {
		t.Fatal("different signal type in CoAccept")
	}
	// Sends have empty CoAccept.
	for _, id := range g.TaskNodes(g.TaskIndex("t2")) {
		if len(info.CoAccept.Row(id)) != 0 {
			t.Fatal("send has CoAccept entries")
		}
	}
}

func TestLoopyGraphDegradesSafely(t *testing.T) {
	g, info := compute(t, `
task t1 is
begin
  while w loop
    a: t2.m;
  end loop;
end;
task t2 is
begin
  while w loop
    accept m;
  end loop;
end;
`)
	if info.LoopFree {
		t.Fatal("cyclic control not detected")
	}
	for r := 0; r < g.N(); r++ {
		if len(info.SequenceableSet(r)) != 0 || len(info.NotCoexecSet(r)) != 0 {
			t.Fatal("ordering facts derived on cyclic graph")
		}
	}
	// CoAccept still available.
	_ = info.CoAccept
}

func TestInjectedNotCoexec(t *testing.T) {
	g, info := compute(t, `
task t1 is
begin
  a: t2.m;
end;
task t2 is
begin
  b: accept m;
end;
`)
	a, b := g.NodeByLabel("a"), g.NodeByLabel("b")
	if info.NotCoexec.Get(a, b) {
		t.Fatal("unexpected initial fact")
	}
	info.AddNotCoexec(a, b)
	if !info.NotCoexec.Get(a, b) || !info.NotCoexec.Get(b, a) {
		t.Fatal("injection not symmetric")
	}
}

func TestTwoTaskDeadlockOrdering(t *testing.T) {
	// The soundness regression from DESIGN.md: in the reversed handshake
	// rule 1 gives a1 < a2 and b1 < b2; rule 2 gives the vacuous a2 < b2
	// and b2 < a2. The heads a1, b1 must stay unordered.
	g, info := compute(t, `
task A is
begin
  a1: accept x;
  a2: B.y;
end;
task B is
begin
  b1: accept y;
  b2: A.x;
end;
`)
	a1, b1 := g.NodeByLabel("a1"), g.NodeByLabel("b1")
	a2, b2 := g.NodeByLabel("a2"), g.NodeByLabel("b2")
	if info.Sequenceable(a1, b1) {
		t.Fatal("deadlock heads must not be sequenceable")
	}
	if !info.Precede.Get(a1, a2) || !info.Precede.Get(b1, b2) {
		t.Fatal("rule 1 facts missing")
	}
}
