package order

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lang"
	"repro/internal/sg"
	"repro/internal/waves"
	"repro/internal/workload"
)

func TestFIFOPipelinePairs(t *testing.T) {
	// Two ordered sends, two ordered accepts: only the diagonal pairing
	// is feasible; both off-diagonal edges are reported.
	g := sg.MustFromProgram(lang.MustParse(`
task a is
begin
  s1: b.m;
  s2: b.m;
end;
task b is
begin
  a1: accept m;
  a2: accept m;
end;
`))
	info := Compute(g)
	pairs := info.InfeasibleSyncPairs()
	if len(pairs) != 2 {
		t.Fatalf("pairs=%v", pairs)
	}
	want := map[[2]int]bool{}
	s1, s2 := g.NodeByLabel("s1"), g.NodeByLabel("s2")
	a1, a2 := g.NodeByLabel("a1"), g.NodeByLabel("a2")
	want[[2]int{s1, a2}] = true
	want[[2]int{s2, a1}] = true
	for _, p := range pairs {
		k := [2]int{p[0], p[1]}
		k2 := [2]int{p[1], p[0]}
		if !want[k] && !want[k2] {
			t.Fatalf("unexpected pair %v", p)
		}
	}
	// Removing them leaves the diagonal only.
	if n := g.RemoveSyncEdges(pairs); n != 2 {
		t.Fatalf("removed=%d", n)
	}
	if !g.HasSyncEdge(s1, a1) || !g.HasSyncEdge(s2, a2) {
		t.Fatal("diagonal edges lost")
	}
	if g.HasSyncEdge(s1, a2) || g.HasSyncEdge(s2, a1) {
		t.Fatal("off-diagonal edges survive")
	}
}

func TestFIFORequiresChains(t *testing.T) {
	// Sends in different tasks are unordered: no refinement.
	g := sg.MustFromProgram(lang.MustParse(`
task a is
begin
  srv.m;
end;
task b is
begin
  srv.m;
end;
task srv is
begin
  accept m;
  accept m;
end;
`))
	info := Compute(g)
	if pairs := info.InfeasibleSyncPairs(); len(pairs) != 0 {
		t.Fatalf("unordered sends refined: %v", pairs)
	}
	// Branch-exclusive accepts are unordered too.
	g2 := sg.MustFromProgram(lang.MustParse(`
task a is
begin
  b.m;
  b.m;
end;
task b is
begin
  if c then
    accept m;
  else
    accept m;
  end if;
  accept m;
end;
`))
	info2 := Compute(g2)
	if pairs := info2.InfeasibleSyncPairs(); len(pairs) != 0 {
		t.Fatalf("branch-exclusive accepts refined: %v", pairs)
	}
}

func TestFIFOLoopyGraphNoOp(t *testing.T) {
	g := sg.MustFromProgram(lang.MustParse(`
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
`))
	info := Compute(g)
	if pairs := info.InfeasibleSyncPairs(); pairs != nil {
		t.Fatalf("refinement on cyclic graph: %v", pairs)
	}
}

// Behaviour preservation: deleting the infeasible edges changes nothing
// the exact explorer can observe except stall classification becoming
// more precise — states, transitions, completion and deadlock must match.
func TestQuickFIFOPreservesExactBehaviour(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(2)
		cfg.StmtsPerTask = 2 + rng.Intn(3)
		cfg.BranchProb = 0.2
		p := workload.Random(rng, cfg)
		g1, err := sg.FromProgram(p)
		if err != nil {
			return false
		}
		before := waves.Explore(g1, waves.Options{MaxStates: 150000})
		if before.Truncated {
			return true
		}
		g2, err := sg.FromProgram(p)
		if err != nil {
			return false
		}
		info := Compute(g2)
		removed := g2.RemoveSyncEdges(info.InfeasibleSyncPairs())
		after := waves.Explore(g2, waves.Options{MaxStates: 150000})
		if after.Truncated {
			return true
		}
		if before.States != after.States || before.Transitions != after.Transitions ||
			before.Completed != after.Completed || before.Deadlock != after.Deadlock {
			t.Logf("behaviour changed (removed %d edges) on\n%s", removed, p)
			return false
		}
		return true
	}
	// Seeds whose deadlock classification changed while chains could be
	// ordered through cross-task Precede facts.
	for _, seed := range []int64{1091, 2329, 195709} {
		if !f(seed) {
			t.Fatalf("seed %d: behaviour changed", seed)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
