// Package core implements the paper's two polynomial-time deadlock
// detection algorithms and the extension spectrum of §4.2.
//
// Naive (§3.1): the program may deadlock only if its cycle location graph
// has a directed cycle. Refined (§4.2): for every hypothesized head node h,
// nodes sequenceable with h are blocked from acting as heads (sync edge
// into k_i removed), same-type co-accepts are blocked from sync traversal
// entirely, and nodes that cannot co-execute with h are removed; h is a
// possible deadlock head only if a strong component through h_i survives.
// Extensions hypothesize head pairs, head–tail pairs, and two head–tail
// pairs, trading time for precision exactly as the paper describes.
//
// All detectors are conservative: they never report "deadlock-free" for a
// program that can deadlock (property-tested against the exact wave
// explorer), but may report possible deadlocks that cannot occur.
//
// Every algorithm expects a loop-free sync graph; apply cfg.Unroll first
// (Analyze in the facade package does this automatically).
//
// Execution model: the refined detectors all test streams of independent
// hypotheses, so they run on the parallel sweep engine in sweep.go —
// per-worker probe state, deterministic merge, verdicts byte-identical to
// serial runs. See the Analyzer doc for the concurrency contract.
package core

import (
	"encoding/binary"
	"sync"
	"unsafe"

	"repro/internal/bitset"
	"repro/internal/clg"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/sg"
)

// Algorithm names the detection variants, in increasing precision/cost.
type Algorithm int

const (
	// AlgoNaive is CLG cycle detection (constraint 1 only).
	AlgoNaive Algorithm = iota
	// AlgoRefined hypothesizes single head nodes (the paper's main
	// algorithm, approximating constraints 2 and 3a).
	AlgoRefined
	// AlgoRefinedPairs hypothesizes pairs of head nodes.
	AlgoRefinedPairs
	// AlgoRefinedHeadTail hypothesizes head-tail node pairs.
	AlgoRefinedHeadTail
	// AlgoRefinedHeadTailPairs hypothesizes two head-tail pairs (k = 2).
	AlgoRefinedHeadTailPairs
)

func (a Algorithm) String() string {
	switch a {
	case AlgoNaive:
		return "naive"
	case AlgoRefined:
		return "refined"
	case AlgoRefinedPairs:
		return "refined+head-pairs"
	case AlgoRefinedHeadTail:
		return "refined+head-tail"
	case AlgoRefinedHeadTailPairs:
		return "refined+head-tail-pairs"
	case AlgoRefinedKPairs:
		return "refined+k-pairs"
	case AlgoEnumerate:
		return "enumerate"
	}
	return "?"
}

// Verdict is the outcome of one detection run.
type Verdict struct {
	Algorithm Algorithm
	// MayDeadlock is true unless the program was certified deadlock-free.
	MayDeadlock bool
	// Witnesses holds, per surviving hypothesis, the sync-graph node ids
	// of a strong component supporting a possible deadlock (deduplicated).
	Witnesses [][]int
	// Hypotheses counts head (or pair) hypotheses tested; SCCRuns counts
	// masked strong-component searches performed.
	Hypotheses int
	SCCRuns    int
}

// Analyzer bundles a sync graph with its derived structures so the
// detection spectrum can be run without recomputing them.
//
// Concurrency: an Analyzer is read-only after construction and safe for
// concurrent use — any number of goroutines may call the detector methods
// on one shared Analyzer. All per-hypothesis mutable state (markings,
// Tarjan scratch) lives in pooled probe values, never in the Analyzer.
// The two exceptions to the read-only contract are the exported knobs
// Parallelism and Trace, which callers set before handing the Analyzer
// out. Trace aggregation is not synchronized across detector runs:
// concurrent runs on one Analyzer require a nil Trace (the facade traces
// only its own single-goroutine pipeline, so this composes).
type Analyzer struct {
	SG  *sg.Graph
	CLG *clg.CLG
	Ord *order.Info

	// Parallelism caps the worker count of hypothesis sweeps. 0 (the
	// default) means GOMAXPROCS; 1 forces serial execution; values above
	// GOMAXPROCS are honored (useful for exercising the parallel path on
	// small machines). Verdicts are identical at every setting.
	Parallelism int

	// Trace, when non-nil, receives the detector's work counters
	// (hypotheses tested, SCC runs, nodes pruned by each marking rule,
	// sweep worker counts). The facade points it at the active
	// pipeline-stage span before each detector run; a nil Trace records
	// nothing and costs one branch. Only the coordinating goroutine
	// writes to it — workers accumulate privately and the sums are merged
	// after each sweep, so totals match serial runs exactly.
	Trace *obs.Span

	// Immutable hypothesis tables, materialized once at construction so
	// the per-hypothesis hot path never recomputes or allocates them:
	// POSS-HEADS, SEQUENCEABLE and NOT-COEXEC sets per rendezvous node,
	// and tail candidates per possible head.
	heads   []int
	seqSets [][]int
	ncxSets [][]int
	tails   [][]int

	// probes is behind a pointer so Session views share one scratch pool
	// with the analyzer they alias (copying a sync.Pool is illegal).
	probes *sync.Pool
}

// Session returns a lightweight view of the analyzer binding per-run
// knobs without mutating the shared value: the view aliases every
// immutable table (and the probe pool) but carries its own Parallelism
// and Trace. Stage caches that share one Analyzer per program digest
// across concurrently running algorithms must run detectors through
// sessions — writing the knobs on the shared Analyzer would race.
func (a *Analyzer) Session(parallelism int, trace *obs.Span) *Analyzer {
	s := *a
	s.Parallelism = parallelism
	s.Trace = trace
	return &s
}

// SizeBytes approximates the analyzer's resident footprint, for byte-
// budgeted caches: its CLG and ordering tables plus the hypothesis
// tables, every row at its capacity. The sync graph is the caller's to
// count (it is shared, not owned).
func (a *Analyzer) SizeBytes() int64 {
	sz := int64(unsafe.Sizeof(*a)) + int64(unsafe.Sizeof(sync.Pool{}))
	sz += a.CLG.SizeBytes() + a.Ord.SizeBytes() + int64(cap(a.heads))*8
	return sz + graph.TableBytes(a.seqSets) + graph.TableBytes(a.ncxSets) + graph.TableBytes(a.tails)
}

// NewAnalyzer builds the CLG and ordering facts for g. The sync graph must
// be loop-free for the refined detectors to gain any precision; with
// control cycles they degrade (safely) toward the naive answer.
//
// Ordering facts are snapshotted here: order.Info.AddNotCoexec calls made
// after construction are not seen by this Analyzer's detectors.
func NewAnalyzer(g *sg.Graph) *Analyzer {
	return NewAnalyzerTraced(g, nil)
}

// NewAnalyzerTraced is NewAnalyzer recording the derived structures' sizes
// (CLG nodes/edges) into span (nil span records nothing).
func NewAnalyzerTraced(g *sg.Graph, span *obs.Span) *Analyzer {
	a := &Analyzer{SG: g, CLG: clg.BuildTraced(g, span), Ord: order.Compute(g), probes: new(sync.Pool)}
	a.buildTables()
	return a
}

// buildTables materializes the hypothesis tables: POSS-HEADS, the
// SEQUENCEABLE and NOT-COEXEC sets of every rendezvous node, and the tail
// candidates of every possible head. Each set is first formed word-wide
// as a bit row; the rows' counts then size one slab, and every table row
// is carved from it in ascending node order.
func (a *Analyzer) buildTables() {
	g, ord := a.SG, a.Ord
	n := g.N()
	unsynced := bitset.NewRow(n) // nodes that cannot be tails
	for _, nd := range g.Nodes {
		if !nd.IsRendezvous() || len(g.Sync[nd.ID]) == 0 {
			unsynced.Set(nd.ID)
		}
	}
	// seq.Row(r): nodes s != r that r precedes, that precede r, or that
	// cannot co-head with r. order.Compute relates rendezvous nodes only.
	seq := bitset.NewMatrix(n)
	precedes := make([]int, 0, n)
	for r := 0; r < n; r++ {
		bitset.Or(seq.Row(r), ord.Precede.Row(r))
		bitset.Or(seq.Row(r), ord.NoCohead.Row(r))
		precedes = ord.Precede.Row(r).Members(precedes[:0])
		for _, s := range precedes {
			seq.Set(s, r)
		}
	}
	// tail.Row(h): rendezvous nodes with sync edges, strictly control-
	// reachable from h, not same-type co-accepts of h and co-executable
	// with h.
	tail := bitset.NewMatrix(n)
	nh, total := 0, 0
	for _, nd := range g.Nodes {
		if !nd.IsRendezvous() {
			continue
		}
		r := nd.ID
		seq.Row(r).Clear(r)
		total += seq.Row(r).Count() + ord.NotCoexec.Row(r).Count()
		if !a.isHead(nd) {
			continue
		}
		tr := tail.Row(r)
		for _, s := range g.Control.Succ(r) {
			bitset.Or(tr, ord.Reach.Row(s))
		}
		bitset.AndNot(tr, unsynced)
		bitset.AndNot(tr, ord.NotCoexec.Row(r))
		for _, k := range ord.CoAccept[r] {
			tr.Clear(k)
		}
		nh++
		total += tr.Count()
	}

	slab := make([]int, 0, nh+total)
	carve := func(row bitset.Row) []int {
		start := len(slab)
		slab = row.Members(slab)
		return slab[start:len(slab):len(slab)]
	}
	rows := make([][]int, 3*n)
	a.seqSets, a.ncxSets, a.tails = rows[:n:n], rows[n:2*n:2*n], rows[2*n:]
	for _, nd := range g.Nodes {
		if a.isHead(nd) {
			slab = append(slab, nd.ID)
		}
	}
	a.heads = slab[:nh:nh]
	for _, nd := range g.Nodes {
		if nd.IsRendezvous() {
			a.seqSets[nd.ID] = carve(seq.Row(nd.ID))
			a.ncxSets[nd.ID] = carve(ord.NotCoexec.Row(nd.ID))
		}
	}
	for _, h := range a.heads {
		a.tails[h] = carve(tail.Row(h))
	}
}

// isHead reports whether n is in the paper's POSS-HEADS set: a rendezvous
// node with at least one sync edge that is the tail of at least one
// control edge leading to another rendezvous node.
func (a *Analyzer) isHead(n *sg.Node) bool {
	g := a.SG
	if !n.IsRendezvous() || len(g.Sync[n.ID]) == 0 {
		return false
	}
	for _, s := range g.Control.Succ(n.ID) {
		if s != g.E && g.Nodes[s].IsRendezvous() {
			return true
		}
	}
	return false
}

// PossibleHeads returns the paper's POSS-HEADS set, memoized at
// construction. Callers must not modify the returned slice.
func (a *Analyzer) PossibleHeads() []int { return a.heads }

// Naive runs CLG cycle detection.
func (a *Analyzer) Naive() Verdict {
	v := Verdict{Algorithm: AlgoNaive}
	v.Witnesses = a.CLG.Cycles()
	v.MayDeadlock = len(v.Witnesses) > 0
	v.Hypotheses = 1
	v.SCCRuns = 1
	return v
}

// tailCandidates returns the cached tail set for possible head h (nil for
// nodes outside POSS-HEADS). Callers must not modify the returned slice.
func (a *Analyzer) tailCandidates(h int) []int { return a.tails[h] }

// Refined runs the paper's main refined algorithm: one masked SCC search
// per possible head node. Total time O(|N_CLG| * (|N_CLG| + |E_CLG|)),
// divided across sweep workers.
func (a *Analyzer) Refined() Verdict {
	return a.sweep(AlgoRefined, a.refinedHyps())
}

// RefinedPairs hypothesizes unordered pairs of head nodes in distinct
// tasks. Pairs that are sequenceable (constraint 3a) or joined by a sync
// edge (constraint 2) cannot both head one cycle and are skipped; every
// deadlock cycle couples at least two tasks, so the pair sweep is
// exhaustive and the detector remains safe.
func (a *Analyzer) RefinedPairs() Verdict {
	return a.sweep(AlgoRefinedPairs, a.refinedPairHyps())
}

// RefinedHeadTail hypothesizes (head, tail) pairs within one task and
// requires the strong component to contain both h_i and t_o.
func (a *Analyzer) RefinedHeadTail() Verdict {
	return a.sweep(AlgoRefinedHeadTail, a.headTailHyps())
}

// RefinedHeadTailPairs combines both extensions with k = 2: two head-tail
// pairs in distinct tasks must share one strong component. The paper notes
// k = 2 is the safe limit without a separate small-cycle search, because
// every deadlock cycle joins at least two tasks.
func (a *Analyzer) RefinedHeadTailPairs() Verdict {
	return a.sweep(AlgoRefinedHeadTailPairs, a.headTailPairHyps())
}

// Run dispatches by algorithm. AlgoRefinedKPairs runs with k = 3 and
// default budgets; AlgoEnumerate runs with the default cycle budget (its
// inconclusive outcome maps to a conservative may-deadlock verdict).
func (a *Analyzer) Run(algo Algorithm) Verdict {
	var v Verdict
	switch algo {
	case AlgoNaive:
		v = a.Naive()
	case AlgoRefined:
		v = a.Refined()
	case AlgoRefinedPairs:
		v = a.RefinedPairs()
	case AlgoRefinedHeadTail:
		v = a.RefinedHeadTail()
	case AlgoRefinedHeadTailPairs:
		v = a.RefinedHeadTailPairs()
	case AlgoRefinedKPairs:
		v = a.RefinedKPairs(3, KPairsBudget{})
	case AlgoEnumerate:
		v = a.Enumerate(0).Verdict
	default:
		v = a.Refined()
	}
	a.recordVerdict(v)
	return v
}

// recordVerdict copies a verdict's work counts into the active trace span,
// so stage spans expose the same numbers the Verdict always carried.
func (a *Analyzer) recordVerdict(v Verdict) {
	if t := a.Trace; t != nil {
		t.Add("hypotheses", int64(v.Hypotheses))
		t.Add("scc_runs", int64(v.SCCRuns))
		t.Add("witnesses", int64(len(v.Witnesses)))
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// witnessSet accumulates witness node lists, deduplicating by content
// while preserving first-seen order. Keys are varint-packed so dedup is
// O(total witness length), not quadratic in the number of witnesses.
type witnessSet struct {
	keys map[string]bool
	list [][]int
}

func (ws *witnessSet) add(w []int) {
	k := witnessKey(w)
	if ws.keys == nil {
		ws.keys = map[string]bool{}
	}
	if ws.keys[k] {
		return
	}
	ws.keys[k] = true
	ws.list = append(ws.list, w)
}

func witnessKey(w []int) string {
	buf := make([]byte, 0, 4*len(w))
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range w {
		buf = append(buf, tmp[:binary.PutVarint(tmp[:], int64(v))]...)
	}
	return string(buf)
}
