package waves

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cfg"
	"repro/internal/clg"
	"repro/internal/lang"
	"repro/internal/sg"
	"repro/internal/workload"
)

// Invariants of the wave closure on random loop-free programs:
//
//   - progress is monotone, so every maximal path terminates: a complete
//     exploration reports success or an anomaly (or both, on different
//     branches);
//   - anomaly classification and Theorem 1 agree on every recorded wave;
//   - the deadlock/stall flags match the recorded anomalies when nothing
//     was dropped by the anomaly cap.
func TestQuickExplorationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(3)
		cfg.StmtsPerTask = 1 + rng.Intn(4)
		cfg.BranchProb = 0.3
		p := workload.Random(rng, cfg)
		g, err := sg.FromProgram(p)
		if err != nil {
			return false
		}
		res := Explore(g, Options{MaxStates: 300000, MaxAnomalies: 1 << 20})
		if res.Truncated {
			return true
		}
		if !res.Completed && res.AnomalousWaves == 0 {
			t.Logf("no terminal outcome for\n%s", p)
			return false
		}
		if res.States < 1 || res.AnomalousWaves != len(res.Anomalies) {
			return false
		}
		sawDeadlock, sawStall := false, false
		for _, a := range res.Anomalies {
			if len(a.StallNodes) > 0 {
				sawStall = true
			}
			if len(a.DeadlockSet) > 0 {
				sawDeadlock = true
			}
			if err := VerifyTheorem1(g, a); err != nil {
				t.Logf("%v in\n%s", err, p)
				return false
			}
			// Wave sanity: one entry per task, each a task node or e.
			if len(a.Wave) != len(g.Tasks) {
				return false
			}
			for ti, n := range a.Wave {
				if n != g.E && g.TaskOf[n] != ti {
					return false
				}
			}
		}
		return sawDeadlock == res.Deadlock && sawStall == res.Stall
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The closure is deterministic: two explorations of one graph agree on
// every reported statistic.
func TestQuickExplorationDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.Random(rng, workload.DefaultConfig())
		g, err := sg.FromProgram(p)
		if err != nil {
			return false
		}
		a := Explore(g, Options{})
		b := Explore(g, Options{})
		return a.States == b.States && a.Transitions == b.Transitions &&
			a.Completed == b.Completed && a.Deadlock == b.Deadlock &&
			a.Stall == b.Stall && a.AnomalousWaves == b.AnomalousWaves
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Lemma 1: unrolling every loop twice preserves deadlock detection — the
// CLG of the unrolled sync graph has a cycle whenever the program can
// deadlock under exact bounded-loop semantics. Exploring the waves of the
// unrolled program is not such an over-approximation: it keeps two copies
// of each loop body, so a deadlock that needs a third iteration of a loop
// bounded at three disappears from it (generator seed 6438 is one such
// program). The detectors stay sound there, because they search the CLG.
func TestQuickUnrollOverApproximates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2
		cfg.StmtsPerTask = 2 + rng.Intn(2)
		cfg.LoopProb = 0.3
		cfg.BranchProb = 0.1
		p := workload.Random(rng, cfg)
		exact, err := ExploreProgram(p, Options{MaxStates: 200000})
		if err != nil || exact.Truncated || !exact.Deadlock {
			return true
		}
		unrolledGraph, err := sg.FromProgram(cfgUnroll(p))
		if err != nil {
			return false
		}
		if cyc, _ := clg.Build(unrolledGraph).HasCycle(); !cyc {
			t.Logf("seed %d: the unrolled CLG is acyclic but the program deadlocks:\n%s", seed, p)
			return false
		}
		return true
	}
	// The fixed case deadlocks only on a third loop iteration.
	if !f(6438) {
		t.Fatal("seed 6438")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func cfgUnroll(p *lang.Program) *lang.Program { return cfg.Unroll(p) }
