// Package coexec derives cross-task co-executability facts in the sense
// of Callahan and Subhlok (1988) — the external analysis the paper's
// constraint 3b appeals to. Write NC(x, y) for "no single execution runs
// both x and y to completion"; internal/order computes the intra-task
// relation and this package propagates it across sync edges.
//
// REPRODUCTION FINDING — do not feed these facts to the detectors. The
// completion-based relation is the one the paper names (3b: nodes of a
// deadlock set "may be executed in the same run"), but it is UNSOUND as a
// NOT-COEXEC input to the marking algorithms: in a deadlocked execution
// the stuck heads and their unreached tails never run to completion, so
// "never both complete" is vacuously true of exactly the node pairs a
// real deadlock strands, and marking them removes real deadlock cycles.
// TestCompletionFactsUnsoundForMarking pins a program where these facts
// make the head-tail-pairs detector certify a deadlocking program. The
// sound intra-task core the detectors do use ("the cycle's pass through a
// task is a single control path, so mutually unreachable nodes cannot
// both lie on it") lives in internal/order; the exact-1c alternative is
// core.Enumerate.
//
// The package remains as a faithful implementation of the cited analysis
// (useful for program understanding and for documenting the finding).
// Two sound-for-completion-semantics rules run to a fixed point over
// loop-free sync graphs:
//
//  1. Enabling-chain propagation. If some node d dominates y inside y's
//     task (d may be y itself) and every sync partner p of d satisfies
//     NC(p, x), then NC(x, y): any run executing y executes d, which
//     requires one of d's partners to execute — impossible in a run that
//     also executes x.
//
//  2. Shared unique partner. Rendezvous points execute at most once
//     (paper §2: EXECUTED nodes cannot re-execute). If x != y and both
//     have the same single partner d (Sync[x] = Sync[y] = {d}), then at
//     most one of them can ever complete, so NC(x, y).
//
// On graphs with control cycles the analysis is a no-op.
package coexec

import (
	"repro/internal/order"
	"repro/internal/sg"
)

// Refine adds cross-task NOT-COEXEC facts to info, returning the number
// of node pairs added. The graph must be the one info was computed from.
func Refine(g *sg.Graph, info *order.Info) int {
	if !info.LoopFree {
		return 0
	}
	added := 0
	add := func(x, y int) {
		if x != y && !info.NotCoexec.Get(x, y) {
			info.AddNotCoexec(x, y)
			added++
		}
	}

	rendezvous := make([]int, 0, g.N())
	for _, n := range g.Nodes {
		if n.IsRendezvous() {
			rendezvous = append(rendezvous, n.ID)
		}
	}

	// Rule 2 is not recursive; apply it once up front.
	for i, x := range rendezvous {
		if len(g.Sync.Row(x)) != 1 {
			continue
		}
		for _, y := range rendezvous[i+1:] {
			if len(g.Sync.Row(y)) == 1 && g.Sync.Row(x)[0] == g.Sync.Row(y)[0] {
				add(x, y)
			}
		}
	}

	// Dominator chains per node, computed once: the rendezvous nodes of
	// y's own task that dominate y (y included).
	idom := g.Control.Dominators(g.B)
	domChain := make([][]int, g.N())
	for _, y := range rendezvous {
		chain := []int{y}
		for d := idom[y]; d != -1 && d != g.B && d != idom[d]; d = idom[d] {
			if g.Nodes[d].IsRendezvous() && g.TaskOf[d] == g.TaskOf[y] {
				chain = append(chain, d)
			}
		}
		domChain[y] = chain
	}

	// Rule 1 to a fixed point (conclusions feed back soundly: premises
	// are always already-established NC facts).
	changed := true
	for changed {
		changed = false
		for _, y := range rendezvous {
			for _, x := range rendezvous {
				if x == y || g.TaskOf[x] == g.TaskOf[y] || info.NotCoexec.Get(x, y) {
					continue
				}
				if blockedBy(g, info, x, domChain[y]) {
					add(x, y)
					changed = true
				}
			}
		}
	}
	return added
}

// blockedBy reports whether some dominator d of y (from chain) has a
// nonempty partner set all of whose members are NOT-COEXEC with x.
func blockedBy(g *sg.Graph, info *order.Info, x int, chain []int) bool {
	for _, d := range chain {
		partners := g.Sync.Row(d)
		if len(partners) == 0 {
			continue
		}
		all := true
		for _, p := range partners {
			if p == x || !info.NotCoexec.Get(p, x) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}
