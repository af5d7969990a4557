// Package order computes the node-ordering facts the refined deadlock
// detector consumes (paper §4.1/§4.2).
//
// The paper's two derivation rules are:
//
//	(1) if r dominates s in the control flow graph of their task, then r
//	    must precede s;
//	(2) if, for all sync edges {r, s}, s precedes some node t, then r
//	    must precede t.
//
// Reproduction note (soundness refinement). Read as one transitive
// relation, the rules over-derive: rule 2's conclusion only says "if r
// ever finishes, it finishes together with some partner, hence before t" —
// a conditional fact that is NOT transitive with rule-1 facts. Chaining
// them manufactures orderings between nodes that can in fact wait on the
// same execution wave (observable in the Theorem 2 gadget, where the
// literal reading orders unrelated literal tasks and breaks the
// reduction). We therefore compute two relations:
//
//   - Precede — the strong relation "t reached implies r already
//     finished", closed under (a) rule 1 dominance, (b) transitivity
//     (sound for the strong relation), and (c) rule 2 restricted to
//     mutually-unique partners: if r and s can only rendezvous with each
//     other they finish simultaneously, so Precede(r, b) transfers to
//     Precede(s, b).
//   - NoCohead — the general rule 2 conclusion kept at its actual
//     strength: if every sync partner of r strongly precedes t, then r
//     and t cannot both be head nodes of one deadlocked wave (t being
//     reached would mean all of r's potential partners are already past,
//     leaving r a stall node rather than a deadlock head). These facts
//     are sound for blocking co-head hypotheses but are not transitive
//     and never feed back into Precede.
//
// Sequenceable(r, s) — what the detector's SEQUENCEABLE vector holds — is
// the union of both, in either direction.
//
// The package also provides NOT-COEXEC (exact within one sequential task
// on loop-free CFGs: two nodes co-execute iff one control-reaches the
// other; cross-task facts are injectable, mirroring the paper's assumption
// that they come from a separate analysis) and COACCEPT (same-type accept
// nodes).
//
// Data plane: every relation is a bitset.Matrix — one uint64-packed row
// per node — so membership tests are one mask and the strong-relation
// fixed point closes Warshall-style by word-wide OR (bitset.OrExcept)
// instead of per-element scans. TestBitsetMatchesReference pins the bit
// matrices against the historical [][]bool construction.
//
// All ordering facts require a loop-free sync graph (run cfg.Unroll
// first); with control cycles they degrade to empty, which only removes
// detector markings and keeps everything conservative.
package order

import (
	"unsafe"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/graph"
	"repro/internal/sg"
)

// Info holds ordering facts for one sync graph.
type Info struct {
	G *sg.Graph
	// Precede.Get(r, s) reports that s cannot be reached before r finished.
	Precede bitset.Matrix
	// NoCohead.Get(r, s) reports that r and s cannot both be deadlock heads
	// on one anomalous wave (general rule 2; not transitive).
	NoCohead bitset.Matrix
	// NotCoexec.Get(r, s) reports r and s never execute in the same run.
	NotCoexec bitset.Matrix
	// Reach.Get(u, v) reports that v is control-reachable from u; every
	// node reaches itself. Unlike the relations above it also holds on
	// graphs with control cycles.
	Reach bitset.Matrix
	// CoAccept[r] lists same-type accept nodes for accept r (empty for
	// sends, per the paper's COACCEPT vector).
	CoAccept [][]int
	// LoopFree reports whether the control subgraph was acyclic; when
	// false, Precede, NoCohead and NotCoexec are all-false (conservative).
	LoopFree bool
}

// Compute derives all ordering facts for g.
func Compute(g *sg.Graph) *Info {
	n := g.N()
	info := &Info{G: g}
	info.Precede = bitset.NewMatrix(n)
	info.NoCohead = bitset.NewMatrix(n)
	info.NotCoexec = bitset.NewMatrix(n)
	info.CoAccept = coAcceptRows(g.Nodes) // loop-independent

	topo, err := g.Control.Topo()
	info.LoopFree = err == nil
	info.Reach = reachability(g.Control, topo)
	if !info.LoopFree {
		return info // no ordering facts
	}
	reach := info.Reach
	idom := g.Control.Dominators(g.B)

	rendezvous := make([]int, 0, n)
	for _, nd := range g.Nodes {
		if nd.IsRendezvous() {
			rendezvous = append(rendezvous, nd.ID)
		}
	}

	// Rule 1: dominance within a task.
	for _, r := range rendezvous {
		for _, s := range rendezvous {
			if r == s || g.TaskOf[r] != g.TaskOf[s] {
				continue
			}
			if graph.Dominates(idom, g.B, r, s) {
				info.Precede.Set(r, s)
			}
		}
	}

	// NOT-COEXEC within a task: no control path either way.
	for ti := range g.Tasks {
		nodes := g.TaskNodes(ti)
		for i, r := range nodes {
			for _, s := range nodes[i+1:] {
				if !reach.Get(r, s) && !reach.Get(s, r) {
					info.NotCoexec.Set(r, s)
					info.NotCoexec.Set(s, r)
				}
			}
		}
	}

	// Mutually-unique partner pairs: r and s finish simultaneously.
	type muPair struct{ r, s int }
	var mu []muPair
	for _, r := range rendezvous {
		if len(g.Sync[r]) != 1 {
			continue
		}
		s := g.Sync[r][0]
		if len(g.Sync[s]) == 1 && g.Sync[s][0] == r {
			mu = append(mu, muPair{r, s})
		}
	}

	// Strong-relation fixed point, word-wide: MU transfer folds row r into
	// row s masking the pair's own bits (simultaneous finishers cannot
	// precede each other or their own completion); transitivity folds row b
	// into row a for every established Precede(a, b), masking a's own bit
	// (nothing precedes itself). Both are monotone, so the fixed point is
	// the same relation the historical element-by-element loops reached.
	for changed := true; changed; {
		changed = false
		for _, p := range mu {
			if bitset.OrExcept(info.Precede.Row(p.s), info.Precede.Row(p.r), p.r, p.s) {
				changed = true
			}
		}
		for _, a := range rendezvous {
			ra := info.Precede.Row(a)
			for _, b := range rendezvous {
				if a != b && ra.Get(b) {
					if bitset.OrExcept(ra, info.Precede.Row(b), a, -1) {
						changed = true
					}
				}
			}
		}
	}

	// General rule 2 at its true strength: all partners of r strongly
	// precede t => r and t cannot co-head a deadlock. One pass over the
	// finished Precede relation; conclusions never feed back.
	for _, r := range rendezvous {
		partners := g.Sync[r]
		if len(partners) == 0 {
			continue
		}
		for _, t := range rendezvous {
			if t == r || info.NoCohead.Get(r, t) {
				continue
			}
			all := true
			for _, s := range partners {
				if s == t || !info.Precede.Get(s, t) {
					all = false
					break
				}
			}
			if all {
				info.NoCohead.Set(r, t)
				info.NoCohead.Set(t, r)
			}
		}
	}
	return info
}

// reachability returns the reflexive reachability matrix of g. Folding
// each node's successor rows into its own row in reverse topological
// order closes it in one pass; a cyclic graph (nil topo) is folded in
// reverse id order until no row changes.
func reachability(g *graph.Digraph, topo []int) bitset.Matrix {
	n := g.N()
	reach := bitset.NewMatrix(n)
	for v := 0; v < n; v++ {
		reach.Set(v, v)
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			u := i
			if topo != nil {
				u = topo[i]
			}
			for _, v := range g.Succ(u) {
				if bitset.Or(reach.Row(u), reach.Row(v)) {
					changed = true
				}
			}
		}
		changed = changed && topo == nil
	}
	return reach
}

// coAcceptRows lists, for every accept node, the other accepts of its
// signal type in ascending id order. A counting pass sizes one slab that
// the rows are carved from.
func coAcceptRows(nodes []*sg.Node) [][]int {
	coAccept := func(r, s *sg.Node) bool {
		return r.Kind == cfg.KindAccept && s.Kind == cfg.KindAccept && s.ID != r.ID && s.Sig == r.Sig
	}
	total := 0
	for _, r := range nodes {
		for _, s := range nodes {
			if coAccept(r, s) {
				total++
			}
		}
	}
	rows := make([][]int, len(nodes))
	slab := make([]int, 0, total)
	for _, r := range nodes {
		start := len(slab)
		for _, s := range nodes {
			if coAccept(r, s) {
				slab = append(slab, s.ID)
			}
		}
		if len(slab) > start {
			rows[r.ID] = slab[start:len(slab):len(slab)]
		}
	}
	return rows
}

// SizeBytes approximates the Info's resident footprint, for byte-budgeted
// caches that retain ordering facts across requests: the four bit
// matrices dominate, plus the CoAccept adjacency at its capacity.
func (i *Info) SizeBytes() int64 {
	sz := int64(unsafe.Sizeof(*i))
	sz += i.Precede.SizeBytes() + i.NoCohead.SizeBytes() + i.NotCoexec.SizeBytes() + i.Reach.SizeBytes()
	return sz + graph.TableBytes(i.CoAccept)
}

// Sequenceable reports whether r and s are ordered (strongly, in either
// direction) or cannot co-head a deadlocked wave — exactly the pairs the
// detector may not hypothesize as joint heads.
func (i *Info) Sequenceable(r, s int) bool {
	return i.Precede.Get(r, s) || i.Precede.Get(s, r) || i.NoCohead.Get(r, s)
}

// SequenceableSet returns all nodes sequenceable with r (the paper's
// SEQUENCEABLE[r] vector entry).
func (i *Info) SequenceableSet(r int) []int {
	var out []int
	for s := 0; s < i.Precede.N(); s++ {
		if s != r && i.G.Nodes[s].IsRendezvous() && i.Sequenceable(r, s) {
			out = append(out, s)
		}
	}
	return out
}

// NotCoexecSet returns all nodes known never to co-execute with r.
func (i *Info) NotCoexecSet(r int) []int {
	return i.NotCoexec.Row(r).Members(nil)
}

// AddNotCoexec injects an external co-executability fact (symmetric),
// mirroring the paper's assumption that such facts may come from a
// separate static analysis. Callers must inject facts before the Info is
// shared with a core.Analyzer: the analyzer snapshots the relation's
// per-node sets at construction time.
func (i *Info) AddNotCoexec(r, s int) {
	i.NotCoexec.Set(r, s)
	i.NotCoexec.Set(s, r)
}
