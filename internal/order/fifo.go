package order

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/graph"
)

// FIFO sync-edge refinement (extension; not in the paper, but in the
// family of execution-wave feasibility arguments §4 opens with).
//
// For a signal type whose send nodes form one dominance chain
// s1 < s2 < ... < sm inside one task and whose accept nodes form one
// dominance chain a1 < ... < an inside one task, the i-th accept can only
// ever rendezvous with the i-th send. Induction on j: when sj is reached,
// s1..s(j-1) have finished with j-1 *distinct* accepts, and none of those
// can have an index above the pairing accept ai (a finished later-chain
// accept would force ai finished too); with j > i that leaves j-1 >= i
// distinct accepts below index i — impossible. Symmetrically for i > j.
// Off-diagonal sync edges therefore never fire. Deleting them from the
// sync graph before any detector runs shrinks the CLG and lets even the
// naive detector certify repeated-message patterns (pipelines).
//
// Never firing is not enough to delete an edge, though: the detectors
// also read a sync edge as a wait, and deleting an edge that a blocked
// wave waits on turns a deadlock into a stall. The chains must be dominance chains inside one
// task each, not any strong Precede chains. Then a sender task waiting at
// sj has finished s1..s(j-1), which paired with a1..a(j-1), and aj
// dominates every later accept, so the accepter task must reach aj before
// any of them: the kept diagonal edge (sj, aj) carries the wait.
// Symmetrically for an accepter waiting at ai. Precede also orders nodes
// through mutually-unique partner transfers across tasks; a chain built
// that way proves the off-diagonal pairings never fire, but a blocked
// wave can still wait on one of them.
//
// Soundness is property-tested two ways: exact exploration of the refined
// graph matches the original on states, transitions, completion and
// deadlock (the deleted edges never fire), and the detector safety suites
// run with the refinement enabled.

// InfeasibleSyncPairs returns the sync edges (as node-id pairs) proven
// infeasible by the FIFO argument. Only meaningful on loop-free graphs;
// returns nil otherwise.
func (i *Info) InfeasibleSyncPairs() [][2]int {
	if !i.LoopFree {
		return nil
	}
	g := i.G
	idom := g.Control.Dominators(g.B)
	type ends struct{ sends, accepts []int }
	bySig := map[string]*ends{}
	for _, n := range g.Nodes {
		if !n.IsRendezvous() {
			continue
		}
		k := n.Sig.Task + "\x00" + n.Sig.Msg
		e := bySig[k]
		if e == nil {
			e = &ends{}
			bySig[k] = e
		}
		if n.Kind == cfg.KindSend {
			e.sends = append(e.sends, n.ID)
		} else {
			e.accepts = append(e.accepts, n.ID)
		}
	}
	var out [][2]int
	for _, e := range bySig {
		if len(e.sends) < 2 && len(e.accepts) < 2 {
			continue // single pairing possible anyway
		}
		sends, ok1 := i.chain(e.sends, idom)
		accepts, ok2 := i.chain(e.accepts, idom)
		if !ok1 || !ok2 {
			continue
		}
		for si, s := range sends {
			for ai, a := range accepts {
				if si != ai {
					out = append(out, [2]int{s, a})
				}
			}
		}
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x][0] != out[y][0] {
			return out[x][0] < out[y][0]
		}
		return out[x][1] < out[y][1]
	})
	return out
}

// chain orders nodes into a single dominance chain inside one task (rule
// 1 alone), reporting failure when some pair is unordered. Selection is
// explicit (repeatedly pick an element dominating every remaining one)
// because dominance is a partial order and sort comparators require
// totality.
func (i *Info) chain(nodes, idom []int) ([]int, bool) {
	g := i.G
	remaining := append([]int(nil), nodes...)
	out := make([]int, 0, len(remaining))
	for len(remaining) > 0 {
		pick := -1
		for xi, x := range remaining {
			ok := true
			for yi, y := range remaining {
				if xi != yi && (g.TaskOf[x] != g.TaskOf[y] || !graph.Dominates(idom, g.B, x, y)) {
					ok = false
					break
				}
			}
			if ok {
				pick = xi
				break
			}
		}
		if pick == -1 {
			return nil, false
		}
		out = append(out, remaining[pick])
		remaining = append(remaining[:pick], remaining[pick+1:]...)
	}
	return out, true
}
