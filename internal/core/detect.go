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
// Tarjan scratch) lives in probe values drawn from one pool that every
// analyzer shares, never in the Analyzer.
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
	seqSets graph.Rows
	ncxSets graph.Rows
	tails   graph.Rows

	// The analysis' two slabs: ints holds every int table — the sync
	// graph's (on the analyzer's own copy of the graph), the CLG's,
	// COACCEPT and the tables above — and words every bit row (the four
	// ordering matrices and the CLG's IsIn).
	ints  []int
	words []uint64
}

// block is an Analyzer's one allocation besides its slabs: the analyzer,
// its copy of the sync graph, its CLG and its ordering facts.
type block struct {
	a   Analyzer
	g   sg.Graph
	c   clg.CLG
	ord order.Info
}

// Session returns a lightweight view of the analyzer binding per-run
// knobs without mutating the shared value: the view aliases every
// immutable table but carries its own Parallelism and Trace. Stage
// caches that share one Analyzer per program digest across concurrently
// running algorithms must run detectors through sessions — writing the
// knobs on the shared Analyzer would race.
func (a *Analyzer) Session(parallelism int, trace *obs.Span) *Analyzer {
	s := *a
	s.Parallelism = parallelism
	s.Trace = trace
	return &s
}

// SizeBytes reports the analyzer's allocated footprint, for byte-
// budgeted caches: its block and its two slabs at their capacities, plus
// the node, name and task slabs of the sync graph it was built from,
// which its copy of the graph shares.
func (a *Analyzer) SizeBytes() int64 {
	return int64(unsafe.Sizeof(block{})) + int64(cap(a.ints))*8 + int64(cap(a.words))*8 + a.SG.SlabBytes()
}

// NewAnalyzer builds the CLG and ordering facts for g. The sync graph must
// be loop-free for the refined detectors to gain any precision; with
// control cycles they degrade (safely) toward the naive answer.
//
// The analyzer works on its own copy of g, whose int tables it moves into
// its slab; the copy shares g's nodes and names. Later changes to g (such
// as RemoveSyncEdges) are not seen by the analyzer.
func NewAnalyzer(g *sg.Graph) *Analyzer {
	return NewAnalyzerTraced(g, nil)
}

// NewAnalyzerTraced is NewAnalyzer recording the derived structures' sizes
// (CLG nodes/edges) into span (nil span records nothing).
//
// Construction sizes both slabs before filling them. The word slab's size
// follows from the node counts; the ordering facts fill it first. Those
// facts decide the hypothesis sets, which are formed word-wide in scratch
// rows whose counts size the int slab. The int slab then takes, in order,
// the graph's tables, the CLG, COACCEPT and the hypothesis tables.
func NewAnalyzerTraced(g *sg.Graph, span *obs.Span) *Analyzer {
	b := &block{g: *g}
	a := &b.a
	a.SG, a.CLG, a.Ord = &b.g, &b.c, &b.ord
	clgInts, clgWords := clg.Len(g)
	a.words = graph.Slab[uint64](order.Words(g) + clgWords)
	words := order.Into(a.Ord, a.SG, a.words)
	coacc := order.CoAcceptRows(g)
	h := a.hypothesisSets(coacc)

	n := g.N()
	a.ints = graph.Slab[int](g.IntsLen() + clgInts + coacc.IntsLen() + len(h.heads) +
		graph.RowsLen(n, h.nseq) + graph.RowsLen(n, h.nncx) + graph.RowsLen(n, h.ntail))
	rest := a.SG.MoveInts(a.ints)
	rest, _ = clg.Into(a.CLG, a.SG, rest, words, span)
	a.Ord.CoAccept, rest = coacc.MoveTo(rest)
	a.heads, rest = graph.CopyTo(rest, h.heads)
	a.seqSets, rest = graph.RowsIn(rest, n, h.nseq)
	a.ncxSets, rest = graph.RowsIn(rest, n, h.nncx)
	a.tails, _ = graph.RowsIn(rest, n, h.ntail)
	for v := 0; v < n; v++ {
		if g.Nodes[v].IsRendezvous() {
			a.seqSets.Extend(h.seq.Row(v).Members)
			a.ncxSets.Extend(a.Ord.NotCoexec.Row(v).Members)
			a.tails.Extend(h.tail.Row(v).Members)
		}
		a.seqSets.EndRow(v)
		a.ncxSets.EndRow(v)
		a.tails.EndRow(v)
	}
	return a
}

// hypothesisScratch holds the scratch form of the hypothesis tables:
// POSS-HEADS, and per node the SEQUENCEABLE set and, for possible heads,
// the tail candidates, as bit rows; with the cell counts that size the
// tables (NOT-COEXEC is read from the ordering facts).
type hypothesisScratch struct {
	heads             []int
	seq, tail         bitset.Matrix
	nseq, nncx, ntail int
}

// hypothesisSets forms the hypothesis sets word-wide from the ordering
// facts and the COACCEPT table.
func (a *Analyzer) hypothesisSets(coacc graph.Rows) hypothesisScratch {
	g, ord := a.SG, a.Ord
	n := g.N()
	var h hypothesisScratch
	scratch := make([]uint64, 2*bitset.MatrixWords(n)+bitset.Words(n))
	h.seq, scratch = bitset.MatrixIn(scratch, n)
	h.tail, scratch = bitset.MatrixIn(scratch, n)
	unsynced := bitset.Row(scratch) // nodes that cannot be tails
	for v := range g.Nodes {
		if !g.Nodes[v].IsRendezvous() || len(g.Sync.Row(v)) == 0 {
			unsynced.Set(v)
		}
	}
	// seq.Row(r): nodes s != r that r precedes, that precede r, or that
	// cannot co-head with r. order.Compute relates rendezvous nodes only.
	precedes := make([]int, 0, n)
	for r := 0; r < n; r++ {
		bitset.Or(h.seq.Row(r), ord.Precede.Row(r))
		bitset.Or(h.seq.Row(r), ord.NoCohead.Row(r))
		precedes = ord.Precede.Row(r).Members(precedes[:0])
		for _, s := range precedes {
			h.seq.Set(s, r)
		}
	}
	// tail.Row(h): rendezvous nodes with sync edges, strictly control-
	// reachable from h, not same-type co-accepts of h and co-executable
	// with h.
	for r := range g.Nodes {
		if !g.Nodes[r].IsRendezvous() {
			continue
		}
		h.seq.Row(r).Clear(r)
		h.nseq += h.seq.Row(r).Count()
		h.nncx += ord.NotCoexec.Row(r).Count()
		if !a.isHead(r) {
			continue
		}
		h.heads = append(h.heads, r)
		tr := h.tail.Row(r)
		for _, s := range g.Control.Succ(r) {
			bitset.Or(tr, ord.Reach.Row(s))
		}
		bitset.AndNot(tr, unsynced)
		bitset.AndNot(tr, ord.NotCoexec.Row(r))
		for _, k := range coacc.Row(r) {
			tr.Clear(k)
		}
		h.ntail += tr.Count()
	}
	return h
}

// isHead reports whether n is in the paper's POSS-HEADS set: a rendezvous
// node with at least one sync edge that is the tail of at least one
// control edge leading to another rendezvous node.
func (a *Analyzer) isHead(v int) bool {
	g := a.SG
	if !g.Nodes[v].IsRendezvous() || len(g.Sync.Row(v)) == 0 {
		return false
	}
	for _, s := range g.Control.Succ(v) {
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
func (a *Analyzer) tailCandidates(h int) []int { return a.tails.Row(h) }

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
