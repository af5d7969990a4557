package coexec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/order"
	"repro/internal/sg"
	"repro/internal/waves"
	"repro/internal/workload"
)

// cfgUnroll applies the Lemma 1 transform, mirroring the Analyze pipeline.
func cfgUnroll(p *lang.Program) *lang.Program { return cfg.Unroll(p) }

func setup(t *testing.T, src string) (*sg.Graph, *order.Info) {
	t.Helper()
	g := sg.MustFromProgram(lang.MustParse(src))
	info := order.Compute(g)
	Refine(g, info)
	return g, info
}

// The Figure 4(c) facts the paper assumes from a separate analysis must
// now be derived automatically: Y past e1 implies X took the then-branch.
func TestFigure4cFactsDerived(t *testing.T) {
	g, info := setup(t, `
task X is
begin
  if c then
    a: accept m1;
    bb: Y.m2;
  else
    cc: accept m3;
    d: Z.m4;
  end if;
end;
task Y is
begin
  e1: accept m2;
  f1: X.m3;
end;
task Z is
begin
  g: accept m4;
  h: X.m1;
end;
`)
	for _, pair := range [][2]string{
		{"e1", "cc"}, {"e1", "d"}, {"f1", "cc"}, {"f1", "d"},
		{"g", "a"}, {"g", "bb"}, {"h", "a"}, {"h", "bb"},
	} {
		x, y := g.NodeByLabel(pair[0]), g.NodeByLabel(pair[1])
		if !info.NotCoexec.Get(x, y) {
			t.Errorf("NC(%s, %s) not derived", pair[0], pair[1])
		}
	}
	// Note: in this fixture no rendezvous ever completes (every branch
	// stalls immediately), so even derived pairs like NC(e1, a) are
	// vacuously true; genuinely co-executing pairs are asserted in
	// TestCoexecutingPairsStayClear on a healthy program.
}

// Pairs that actually complete together in some run must never be marked.
func TestCoexecutingPairsStayClear(t *testing.T) {
	g, info := setup(t, `
task t1 is
begin
  r: t2.m;
  s: accept done;
end;
task t2 is
begin
  u: accept m;
  v: t1.done;
end;
`)
	for _, pair := range [][2]string{{"r", "u"}, {"r", "v"}, {"s", "u"}, {"r", "s"}} {
		x, y := g.NodeByLabel(pair[0]), g.NodeByLabel(pair[1])
		if info.NotCoexec.Get(x, y) {
			t.Errorf("NC(%s, %s) wrongly derived on a completing program", pair[0], pair[1])
		}
	}
}

// The pinned reproduction finding: feeding completion-based NC facts to
// the detectors' NOT-COEXEC vector is unsound. This program (found by the
// end-to-end property test) deadlocks under exact exploration, yet with
// the facts injected the head-tail-pairs detector certifies it — because
// the stranded tails and co-heads of the real deadlock never *complete*
// in any execution and are therefore vacuously "not co-executable".
const unsoundDemo = `
task t0 is
begin
  t1.m1;
  loop 2 times
    if c2 then
      t1.m1;
      t1.m0;
    end if;
  end loop;
  loop 2 times
    t1.m0;
    if c1 then
      accept m0;
      t1.m0;
    else
      accept m1;
      t1.m0;
    end if;
  end loop;
end;

task t1 is
begin
  loop 1 times
    t0.m0;
  end loop;
  t0.m0;
  if c7 then
    if c0 then
      t0.m1;
    end if;
    loop 1 times
      accept m1;
      t0.m0;
    end loop;
  else
    t0.m0;
    accept m0;
  end if;
end;
`

func TestCompletionFactsUnsoundForMarking(t *testing.T) {
	p := lang.MustParse(unsoundDemo)
	exact, err := waves.ExploreProgram(p, waves.Options{})
	if err != nil || exact.Truncated {
		t.Fatalf("ground truth unavailable: %v", err)
	}
	if !exact.Deadlock {
		t.Fatal("fixture no longer deadlocks; finding lost")
	}
	g := sg.MustFromProgram(cfgUnroll(p))
	an := core.NewAnalyzer(g)
	if !an.RefinedHeadTailPairs().MayDeadlock {
		t.Fatal("detector should alarm without the unsound facts")
	}
	Refine(g, an.Ord)
	if an.RefinedHeadTailPairs().MayDeadlock {
		t.Skip("detector still alarms with the facts; the unsoundness demo no longer reproduces (not a failure)")
	}
	// Reaching here demonstrates the miss — which is exactly what this
	// test documents; it must keep demonstrating it.
}

// Rule 2: two senders fighting over one single-shot accept can never both
// complete.
func TestSharedUniquePartner(t *testing.T) {
	g, info := setup(t, `
task srv is
begin
  a: accept req;
end;
task c1 is
begin
  s1: srv.req;
end;
task c2 is
begin
  s2: srv.req;
end;
`)
	s1, s2 := g.NodeByLabel("s1"), g.NodeByLabel("s2")
	if !info.NotCoexec.Get(s1, s2) {
		t.Fatal("shared-unique-partner rule did not fire")
	}
	a := g.NodeByLabel("a")
	if info.NotCoexec.Get(s1, a) || info.NotCoexec.Get(s2, a) {
		t.Fatal("sender wrongly excluded from its own accept")
	}
}

// Cascading: losing the race for the accept blocks everything downstream
// of the loser.
func TestCascadedPropagation(t *testing.T) {
	g, info := setup(t, `
task srv is
begin
  accept req;
end;
task c1 is
begin
  s1: srv.req;
  after1: c2.ping;
end;
task c2 is
begin
  s2: srv.req;
  p: accept ping;
end;
`)
	// after1 runs only if s1 completed; p is dominated by s2... NC(s1,s2)
	// seeds; then NC(after1, s2): after1's dominator s1 has partners
	// {accept req}; that accept CAN co-execute with s2? It rendezvouses
	// with s2 in some run — so rule 1 does not fire via s1's partner.
	// But p (dominated by s2, partner after1 only)... verify at least
	// the seed and that no unsound pair appears against ground truth.
	s1, s2 := g.NodeByLabel("s1"), g.NodeByLabel("s2")
	if !info.NotCoexec.Get(s1, s2) {
		t.Fatal("seed missing")
	}
	assertSoundAgainstExplorer(t, g, info, `
task srv is
begin
  accept req;
end;
task c1 is
begin
  s1: srv.req;
  after1: c2.ping;
end;
task c2 is
begin
  s2: srv.req;
  p: accept ping;
end;
`)
}

// assertSoundAgainstExplorer checks every NC fact against the exact wave
// semantics: no reachable terminal-or-intermediate execution may complete
// both nodes of a NOT-COEXEC pair. We approximate "both completed" with a
// conservative witness: replay the explorer and track executed nodes per
// path. For the small programs used here we instead verify a necessary
// consequence: if NC(x, y) then no run exists in which both x and y are
// EXECUTED — equivalently, exploring the program augmented with the pair
// marked must never see both fire. The waves explorer does not expose
// per-path execution sets, so we use sync-edge reasoning: both nodes'
// rendezvous must fire for them to execute; we enumerate full executions
// by depth-first search over the wave graph and track fired pairs.
func assertSoundAgainstExplorer(t *testing.T, g *sg.Graph, info *order.Info, src string) {
	t.Helper()
	executedTogether := exploreExecutedPairs(g)
	for x := 0; x < g.N(); x++ {
		for y := x + 1; y < g.N(); y++ {
			if info.NotCoexec.Get(x, y) && executedTogether[[2]int{x, y}] {
				t.Fatalf("UNSOUND: NC(%s, %s) but both execute in one run\n%s",
					&g.Nodes[x], &g.Nodes[y], src)
			}
		}
	}
}

// exploreExecutedPairs runs a DFS over wave states, tracking the set of
// executed nodes along each path, and records every pair that completes
// within one execution path. Exponential; test-only, tiny programs.
func exploreExecutedPairs(g *sg.Graph) map[[2]int]bool {
	out := map[[2]int]bool{}
	nt := len(g.Tasks)
	initial := make([][]int, nt)
	for ti := 0; ti < nt; ti++ {
		initial[ti] = g.InitialNodes(ti)
	}
	var wave []int
	var executed []int

	record := func() {
		for i, x := range executed {
			for _, y := range executed[i+1:] {
				a, b := x, y
				if a > b {
					a, b = b, a
				}
				out[[2]int{a, b}] = true
			}
		}
	}

	var step func()
	step = func() {
		progressed := false
		for u := 0; u < nt; u++ {
			if wave[u] == g.E {
				continue
			}
			for v := u + 1; v < nt; v++ {
				if wave[v] == g.E || !g.HasSyncEdge(wave[u], wave[v]) {
					continue
				}
				progressed = true
				ru, rv := wave[u], wave[v]
				executed = append(executed, ru, rv)
				for _, nu := range g.Control.Succ(ru) {
					for _, nv := range g.Control.Succ(rv) {
						wave[u], wave[v] = nu, nv
						step()
					}
				}
				wave[u], wave[v] = ru, rv
				executed = executed[:len(executed)-2]
			}
		}
		if !progressed {
			record()
		}
	}

	var gen func(ti int)
	gen = func(ti int) {
		if ti == nt {
			step()
			return
		}
		for _, v := range initial[ti] {
			wave[ti] = v
			gen(ti + 1)
		}
	}
	wave = make([]int, nt)
	gen(0)
	return out
}

// The soundness property, against exhaustive execution enumeration on
// random loop-free programs: Refine must never mark a pair that some
// execution runs to completion together.
func TestQuickRefineSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(2)
		cfg.StmtsPerTask = 1 + rng.Intn(3)
		cfg.BranchProb = 0.35
		p := workload.Random(rng, cfg)
		g, err := sg.FromProgram(p)
		if err != nil {
			return false
		}
		info := order.Compute(g)
		Refine(g, info)
		pairs := exploreExecutedPairs(g)
		for k, both := range pairs {
			if both && info.NotCoexec.Get(k[0], k[1]) {
				t.Logf("UNSOUND NC(%s,%s):\n%s", &g.Nodes[k[0]], &g.Nodes[k[1]], p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRefineNoOpOnLoops(t *testing.T) {
	g := sg.MustFromProgram(lang.MustParse(`
task a is
begin
  while w loop
    b.m;
  end loop;
end;
task b is
begin
  while w loop
    accept m;
  end loop;
end;
`))
	info := order.Compute(g)
	if n := Refine(g, info); n != 0 {
		t.Fatalf("derived %d facts on a cyclic graph", n)
	}
}
