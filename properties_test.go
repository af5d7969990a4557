package siwa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/waves"
	"repro/internal/workload"
)

// End-to-end safety through the full Lemma 1 pipeline: for random programs
// *with loops*, if the exact explorer (with bounded loops expanded
// precisely) can reach a deadlock, every detector run on the twice-
// unrolled program must report it. This exercises parse -> unroll -> sync
// graph -> CLG -> detectors as one unit.
func TestQuickLoopPipelineSafety(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(2)
		cfg.StmtsPerTask = 2 + rng.Intn(2)
		cfg.BranchProb = 0.2
		cfg.LoopProb = 0.3
		p := workload.Random(rng, cfg)
		exact, err := waves.ExploreProgram(p, waves.Options{MaxStates: 200000})
		if err != nil || exact.Truncated || !exact.Deadlock {
			return true // no ground-truth deadlock to miss
		}
		for _, algo := range []Algorithm{
			AlgoNaive, AlgoRefined, AlgoRefinedPairs,
			AlgoRefinedHeadTail, AlgoRefinedHeadTailPairs,
		} {
			rep, err := Analyze(p, Options{Algorithm: algo})
			if err != nil {
				return false
			}
			if !rep.Deadlock.MayDeadlock {
				t.Logf("UNSOUND through unroll pipeline: %v missed deadlock in\n%s", algo, p)
				return false
			}
		}
		// The enumeration detector must stay safe through the pipeline.
		rep, err := Analyze(p, Options{Enumerate: true, EnumerateLimit: 1 << 16})
		if err != nil {
			return false
		}
		if rep.Enumerated.Conclusive && !rep.Enumerated.MayDeadlock {
			t.Logf("UNSOUND through unroll pipeline: enumeration missed deadlock in\n%s", p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// FIFO-refined detection stays safe end to end on loop-free programs.
func TestQuickFIFOSafety(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(2)
		cfg.StmtsPerTask = 2 + rng.Intn(3)
		cfg.BranchProb = 0.25
		p := workload.Random(rng, cfg)
		exact, err := waves.ExploreProgram(p, waves.Options{MaxStates: 200000})
		if err != nil || exact.Truncated || !exact.Deadlock {
			return true
		}
		for _, algo := range []Algorithm{AlgoNaive, AlgoRefined, AlgoRefinedPairs} {
			rep, err := Analyze(p, Options{Algorithm: algo, FIFO: true})
			if err != nil {
				return false
			}
			if !rep.Deadlock.MayDeadlock {
				t.Logf("UNSOUND with FIFO: %v missed deadlock in\n%s", algo, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// fifoSeed1091 is the program order's TestQuickFIFOPreservesExactBehaviour
// generator draws at seed 1091. The exact explorer deadlocks it: in the
// stuck wave {t0 at accept m0, t1 at accept m1, t2 at its first accept
// m0}, t0 waits on t1 only through the sync edge from t1's send t0.m0 to
// t0's accept m0, which a FIFO chain ordered across tasks once deleted.
const fifoSeed1091 = `
task t0 is
begin
  if c5 then
    accept m0;
  end if;
  t2.m1;
  t1.m1;
end;

task t1 is
begin
  accept m1;
  t0.m0;
  accept m0;
end;

task t2 is
begin
  if c1 then
    t0.m0;
    if c3 then
      t0.m1;
      accept m1;
    end if;
  end if;
  accept m0;
  accept m0;
end;
`

// TestFIFOKeepsSeed1091Deadlock: with the FIFO refinement on, every
// registered detector still reports the deadlock the exact explorer finds.
func TestFIFOKeepsSeed1091Deadlock(t *testing.T) {
	p, err := Parse(fifoSeed1091)
	if err != nil {
		t.Fatal(err)
	}
	if exact, err := waves.ExploreProgram(p, waves.Options{}); err != nil || !exact.Deadlock {
		t.Fatalf("exact explorer: deadlock=%v err=%v, want a deadlock", exact != nil && exact.Deadlock, err)
	}
	for _, info := range AlgorithmList() {
		rep, err := Analyze(p, Options{Algorithm: info.Algorithm, FIFO: true})
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if !rep.Deadlock.MayDeadlock {
			t.Errorf("%s with FIFO certified a program the exact explorer deadlocks", info.Name)
		}
	}
}

// Safety of the constraint-4 certifier end to end: it may never certify a
// program whose exact exploration deadlocks.
func TestQuickConstraint4Safety(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(2)
		cfg.StmtsPerTask = 2 + rng.Intn(2)
		p := workload.Random(rng, cfg)
		exact, err := waves.ExploreProgram(p, waves.Options{MaxStates: 200000})
		if err != nil || exact.Truncated || !exact.Deadlock {
			return true
		}
		rep, err := Analyze(p, Options{Constraint4: true})
		if err != nil {
			return false
		}
		if rep.Constraint4Conclusive && rep.Constraint4Free {
			t.Logf("UNSOUND constraint-4 certificate for\n%s", p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Stall-analysis safety end to end: on loop-free programs, when the
// balance check says "balanced in every linearization", the exact
// explorer must not find a pure stall (stalls without deadlock).
func TestQuickStallBalanceSafety(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(2)
		cfg.StmtsPerTask = 1 + rng.Intn(3)
		cfg.BranchProb = 0.35
		p := workload.Random(rng, cfg)
		rep, err := Analyze(p, Options{})
		if err != nil {
			return false
		}
		if !rep.Stall.StallFree() {
			return true // flagged; nothing to check
		}
		exact, err := waves.ExploreProgram(p, waves.Options{MaxStates: 200000})
		if err != nil || exact.Truncated {
			return true
		}
		if exact.Stall && !exact.Deadlock {
			t.Logf("balanced program stalled without deadlock:\n%s", p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: analyzing the same program twice yields identical verdicts
// and witness sets (the detectors are pure functions of the sync graph).
func TestQuickAnalysisDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.Random(rng, workload.DefaultConfig())
		r1, err1 := Analyze(p, Options{AllAlgorithms: true})
		r2, err2 := Analyze(p, Options{AllAlgorithms: true})
		if err1 != nil || err2 != nil {
			return false
		}
		if len(r1.Spectrum) != len(r2.Spectrum) {
			return false
		}
		for i := range r1.Spectrum {
			a, b := r1.Spectrum[i], r2.Spectrum[i]
			if a.MayDeadlock != b.MayDeadlock || len(a.Witnesses) != len(b.Witnesses) ||
				a.Hypotheses != b.Hypotheses || a.SCCRuns != b.SCCRuns {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
