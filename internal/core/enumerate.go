package core

import (
	"repro/internal/graph"
)

// AlgoEnumerate labels verdicts of the cycle-enumeration detector.
const AlgoEnumerate Algorithm = 101

// EnumerationVerdict is the outcome of the enumeration detector. Unlike
// the hypothesis detectors it can be inconclusive: when the cycle budget
// trips, MayDeadlock is reported conservatively and Conclusive is false.
type EnumerationVerdict struct {
	Verdict
	Conclusive bool
	// CyclesSeen / CyclesPlausible count enumerated simple cycles and the
	// survivors of the feasibility filters.
	CyclesSeen      int
	CyclesPlausible int
}

// Enumerate runs the most precise detector in the suite: it enumerates
// every simple CLG cycle (up to limit; 0 = DefaultEnumerateLimit) and
// keeps only cycles that could derive from a stuck execution wave:
//
//   - the cycle enters each task at most once (constraint 1c — a wave
//     holds one node per task, so a wave-derived cycle's pass through a
//     task is a single head-to-tail path; the masked strong-component
//     detectors cannot express this),
//   - head nodes are pairwise compatible: distinct tasks, no sync edge
//     (constraint 2), not sequenceable (constraint 3a),
//   - no task is entered and exited through same-type accepts (Lemma 2),
//   - no two nodes of the cycle are intra-task NOT-COEXEC (the cycle's
//     task segment is one control path; constraint 3b's sound core).
//
// Every real deadlock produces a wave-derived cycle that passes all four
// filters, so an empty survivor set is a deadlock-freedom certificate.
// Worst-case cost is exponential in the number of simple cycles; the
// budget keeps it usable and the verdict degrades safely.
func (a *Analyzer) Enumerate(limit int) EnumerationVerdict {
	v := EnumerationVerdict{Verdict: Verdict{Algorithm: AlgoEnumerate}}
	cycles, complete := a.EnumerateCycles(limit)
	v.Conclusive = complete
	v.CyclesSeen = len(cycles)
	if !complete {
		v.MayDeadlock = true
		if t := a.Trace; t != nil {
			t.Add("cycles_seen", int64(v.CyclesSeen))
			t.Add("budget_exceeded", 1)
		}
		return v
	}
	ws := witnessSet{}
	for _, ci := range cycles {
		v.Hypotheses++
		if !a.singleEntryPerTask(ci) || !a.plausibleDeadlockCycle(ci) {
			continue
		}
		v.CyclesPlausible++
		v.MayDeadlock = true
		ws.add(graph.Sorted(ci.Nodes))
	}
	v.Witnesses = ws.list
	if t := a.Trace; t != nil {
		t.Add("cycles_seen", int64(v.CyclesSeen))
		t.Add("cycles_plausible", int64(v.CyclesPlausible))
	}
	return v
}

// singleEntryPerTask reports whether the cycle enters every task at most
// once, i.e. has exactly one head node per participating task.
func (a *Analyzer) singleEntryPerTask(ci CycleInfo) bool {
	seen := map[int]bool{}
	for _, h := range ci.Heads {
		ti := a.SG.TaskOf[h]
		if seen[ti] {
			return false
		}
		seen[ti] = true
	}
	return true
}
