package core

import (
	"sort"
	"sync"

	"repro/internal/obs"
)

// probe is the per-worker mutable state of the hypothesis engine: the
// epoch-stamped CLG markings for the hypothesis under test, the Tarjan
// scratch of the masked strong-component search, and the witness
// deduplication buffer. Factoring it out of Analyzer is what makes the
// Analyzer itself read-only after construction — a parallel sweep hands
// each worker its own probe and the workers share nothing but the
// analyzer's immutable tables.
//
// A probe is single-goroutine state; obtain one per worker via
// Analyzer.newProbe and return it with Analyzer.putProbe when done.
type probe struct {
	a *Analyzer

	// Hypothesis markings (valid while == epoch).
	epoch       int
	blocked     []int // DO-NOT-ENTER
	noSyncInto  []int
	noSyncOutOf []int

	// Masked-SCC scratch.
	sccEpoch int
	visited  []int // Tarjan visitation stamp
	index    []int
	low      []int
	onStack  []bool
	compOf   []int
	stack    []int
	frames   []sccFrame
	compBuf  []int // component members of the last search (reused)

	// Witness mapping scratch (sync-graph node ids).
	witEpoch int
	witSeen  []int

	// Marking-rule work counters, accumulated locally and folded into the
	// coordinator's trace span after a sweep (sums are order-independent,
	// so parallel runs report the same totals as serial ones).
	prunedSeq     int64
	prunedCoacc   int64
	prunedNcx     int64
	hypothesesRun int64
}

type sccFrame struct {
	v  int
	ei int
}

// probes holds idle probes for every analyzer. A probe keeps the
// scratch of the largest CLG it has served and is resliced to the one at
// hand: its epoch stamps only grow, so stamps left by another analyzer's
// searches never match a fresh epoch, and every search pops what it
// pushed, leaving onStack clear.
var probes sync.Pool

// newProbe returns a probe sized for the analyzer's CLG, reusing pooled
// scratch when it is large enough. A fresh probe cuts its int scratch
// from one slab; the Tarjan stack and component buffer hold at most one
// entry per CLG node, so they never outgrow it.
func (a *Analyzer) newProbe() *probe {
	n, sn := a.CLG.N(), a.SG.N()
	p, _ := probes.Get().(*probe)
	if p == nil || cap(p.blocked) < n || cap(p.witSeen) < sn {
		ints := make([]int, 9*n+sn)
		cut := func(size int) []int {
			s := ints[:size:size]
			ints = ints[size:]
			return s
		}
		p = &probe{
			blocked:     cut(n),
			noSyncInto:  cut(n),
			noSyncOutOf: cut(n),
			visited:     cut(n),
			index:       cut(n),
			low:         cut(n),
			compOf:      cut(n),
			stack:       cut(n)[:0],
			compBuf:     cut(n)[:0],
			witSeen:     cut(sn),
			onStack:     make([]bool, n),
			frames:      make([]sccFrame, 0, n),
		}
	}
	p.a = a
	p.blocked, p.noSyncInto, p.noSyncOutOf = p.blocked[:n], p.noSyncInto[:n], p.noSyncOutOf[:n]
	p.visited, p.index, p.low, p.compOf = p.visited[:n], p.index[:n], p.low[:n], p.compOf[:n]
	p.onStack, p.witSeen = p.onStack[:n], p.witSeen[:sn]
	p.prunedSeq, p.prunedCoacc, p.prunedNcx, p.hypothesesRun = 0, 0, 0, 0
	return p
}

// putProbe returns a probe to the shared pool, dropping its analyzer so
// an idle probe pins no analysis.
func (a *Analyzer) putProbe(p *probe) {
	p.a = nil
	probes.Put(p)
}

// flushTrace folds the probe's accumulated marking counters into span.
// Only the sweep coordinator may call it (obs.Span is not concurrent-safe).
func (p *probe) flushTrace(span *obs.Span) {
	if span == nil {
		return
	}
	span.Add("pruned_sequenceable", p.prunedSeq)
	span.Add("pruned_coaccept", p.prunedCoacc)
	span.Add("pruned_notcoexec", p.prunedNcx)
}

// begin opens a fresh hypothesis: all previous markings expire.
func (p *probe) begin() { p.epoch++ }

func (p *probe) block(v int)          { p.blocked[v] = p.epoch }
func (p *probe) blockSyncInto(v int)  { p.noSyncInto[v] = p.epoch }
func (p *probe) blockSyncOutOf(v int) { p.noSyncOutOf[v] = p.epoch }
func (p *probe) isBlocked(v int) bool { return p.blocked[v] == p.epoch }
func (p *probe) noSyncIn(v int) bool  { return p.noSyncInto[v] == p.epoch }
func (p *probe) noSyncOut(v int) bool { return p.noSyncOutOf[v] == p.epoch }

// markHead applies the single-head markings for hypothesized head h:
//   - SEQUENCEABLE[h]: cannot be heads of the same cycle (constraint 3a),
//     so sync edges into k_i are blocked. Blocking k's outgoing sync edge
//     too, as the paper's main-loop text literally reads, would also
//     forbid k as a *tail* and is demonstrably unsound (see DESIGN.md);
//     the paper's own head-tail extension marks only r_i, which we follow.
//   - COACCEPT[h]: same-type accepts cannot carry the cycle out of h's
//     task without forcing a constraint-2 violation (Lemma 2), so both
//     halves lose sync traversal.
//   - NOT-COEXEC[h]: cannot appear in any run with h (constraint 3b), so
//     the nodes are removed outright.
func (p *probe) markHead(h int) {
	a := p.a
	c := a.CLG
	seq := a.seqSets.Row(h)
	for _, k := range seq {
		p.blockSyncInto(c.In[k])
	}
	coacc := a.Ord.CoAccept.Row(h)
	for _, k := range coacc {
		p.blockSyncInto(c.In[k])
		p.blockSyncOutOf(c.Out[k])
	}
	ncx := a.ncxSets.Row(h)
	for _, k := range ncx {
		p.block(c.In[k])
		p.block(c.Out[k])
	}
	p.prunedSeq += int64(len(seq))
	p.prunedCoacc += int64(len(coacc))
	p.prunedNcx += int64(len(ncx))
}

// markHeadTail applies the head-tail variant markings for (h, t):
// NOT-COEXEC of either hypothesis is removed; SEQUENCEABLE[h] lose head
// status; COACCEPT needs no marking because the tail is fixed.
func (p *probe) markHeadTail(h, t int) {
	a := p.a
	c := a.CLG
	seq := a.seqSets.Row(h)
	for _, k := range seq {
		p.blockSyncInto(c.In[k])
	}
	ncxH := a.ncxSets.Row(h)
	for _, k := range ncxH {
		p.block(c.In[k])
		p.block(c.Out[k])
	}
	ncxT := a.ncxSets.Row(t)
	for _, k := range ncxT {
		p.block(c.In[k])
		p.block(c.Out[k])
	}
	p.prunedSeq += int64(len(seq))
	p.prunedNcx += int64(len(ncxH) + len(ncxT))
}

// sccThrough runs a masked strong-component search and returns the set of
// CLG nodes in the component containing start, when that component is
// nontrivial (contains a cycle). Nil means start lies on no cycle under
// the current markings. The returned slice is probe-owned scratch, valid
// only until the probe's next search.
func (p *probe) sccThrough(start int) []int {
	comp, ok := p.maskedSCC(start)
	if !ok {
		return nil
	}
	return comp
}

// maskedSCC computes the strongly-connected component of start in the CLG
// under the probe's markings, restricted to nodes reachable from start,
// reusing the probe's epoch-stamped scratch. Returns the component members
// (ascending CLG ids) and whether the component is nontrivial.
func (p *probe) maskedSCC(start int) ([]int, bool) {
	if p.isBlocked(start) {
		return nil, false
	}
	c := p.a.CLG
	g := &c.G
	n := g.N()
	p.sccEpoch++
	epoch := p.sccEpoch
	seen := func(v int) bool { return p.visited[v] == epoch }
	visit := func(v, idx int) {
		p.visited[v] = epoch
		p.index[v], p.low[v] = idx, idx
		p.onStack[v] = true
		p.stack = append(p.stack, v)
	}
	stackBase := len(p.stack)
	idx := 0
	ncomp := 0

	allowed := func(u, v int) bool {
		if p.isBlocked(v) {
			return false
		}
		if c.IsSyncEdge(u, v) && (p.noSyncOut(u) || p.noSyncIn(v)) {
			return false
		}
		return true
	}

	p.frames = append(p.frames[:0], sccFrame{start, 0})
	visit(start, 0)
	idx = 1
	for len(p.frames) > 0 {
		f := &p.frames[len(p.frames)-1]
		v := f.v
		if succ := g.Succ(v); f.ei < len(succ) {
			w := succ[f.ei]
			f.ei++
			if !allowed(v, w) {
				continue
			}
			if !seen(w) {
				visit(w, idx)
				idx++
				p.frames = append(p.frames, sccFrame{w, 0})
			} else if p.onStack[w] && p.index[w] < p.low[v] {
				p.low[v] = p.index[w]
			}
			continue
		}
		if p.low[v] == p.index[v] {
			for {
				w := p.stack[len(p.stack)-1]
				p.stack = p.stack[:len(p.stack)-1]
				p.onStack[w] = false
				p.compOf[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
		p.frames = p.frames[:len(p.frames)-1]
		if len(p.frames) > 0 {
			pv := p.frames[len(p.frames)-1].v
			if p.low[v] < p.low[pv] {
				p.low[pv] = p.low[v]
			}
		}
	}
	p.stack = p.stack[:stackBase]
	startComp := p.compOf[start]

	members := p.compBuf[:0]
	for v := 0; v < n; v++ {
		if p.visited[v] == epoch && p.compOf[v] == startComp {
			members = append(members, v)
		}
	}
	p.compBuf = members
	if len(members) > 1 {
		return members, true
	}
	// Single-node component: nontrivial only with an allowed self-loop
	// (the CLG construction never creates one, but stay defensive).
	for _, w := range g.Succ(start) {
		if w == start && allowed(start, start) {
			return members, true
		}
	}
	return nil, false
}

// witnessNodes maps CLG component members back to deduplicated, sorted
// sync-graph node ids for reporting. The dedup pass runs over an
// epoch-stamped seen buffer instead of a fresh map — witness extraction
// sits on the per-hypothesis hot path.
func (p *probe) witnessNodes(comp []int) []int {
	p.witEpoch++
	out := make([]int, 0, len(comp))
	for _, v := range comp {
		o := p.a.CLG.Orig[v]
		if p.witSeen[o] != p.witEpoch {
			p.witSeen[o] = p.witEpoch
			out = append(out, o)
		}
	}
	sort.Ints(out)
	return out
}
