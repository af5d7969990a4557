// Memoized analysis pipeline: AnalyzeSourceContext keyed on the SHA-256
// content address of the program source.
//
// The paper's pipeline is strictly staged, and everything up to the
// detector sweep depends only on the source (plus the FIFO refinement
// flag, which rewrites the sync graph). The stage cache exploits that
// shape with six key families, one per memoized stage group:
//
//	src:<digest>              parse + inline + Lemma-1 unroll artifacts
//	an:<digest>:f<fifo>       sync graph (post-FIFO) + CLG + ordering tables
//	vd:<digest>:f<fifo>:<alg> one detector verdict
//	st:<digest>               stall balance (FIFO-independent: it reads the
//	                          inlined program, never the sync graph)
//	c4:<digest>:f<fifo>       constraint-4 certificate
//	en:<digest>:f<fifo>:<n>   cycle-enumeration verdict at budget n
//
// so a warm source asked for a new algorithm runs only that algorithm's
// sweep, and a warm (source, algorithm) pair runs nothing at all. The
// exact wave explorer is never memoized — its outcome depends on
// deadlines and cancellation, not just the source.
//
// Immutability discipline: cached artifacts are shared by every request
// that hits them, concurrently. The sync graph, analyzer tables and
// programs are read-only after construction (the PR-4 contract); per-run
// knobs (Parallelism, Trace) live on core.Analyzer.Session views, never
// on the shared Analyzer. Report fields populated from the cache must be
// treated as read-only by callers.
//
// Resource limits are NOT part of any key: they are service policy, not
// content. Builds run under the requester's limits (so an unroll bomb is
// still refused by arithmetic before allocation), and every request —
// hit or miss — rechecks its own limits against the cached artifact's
// actual counts, so a cache warmed by a generous caller cannot smuggle
// an oversized program past a strict one.
package siwa

import (
	"context"
	"errors"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/sg"
	"repro/internal/stall"
)

// StageCache is the content-addressed, byte-budgeted stage cache consumed
// via Options.StageCache. One cache may (and should) be shared by any
// number of concurrent analyses: admission is LRU over artifact bytes,
// and concurrent misses on one key build the artifact exactly once.
type StageCache = memo.Cache

// StageCacheStats is a point-in-time snapshot of stage-cache counters.
type StageCacheStats = memo.Stats

// NewStageCache returns a stage cache admitting at most maxBytes of
// artifact footprint.
func NewStageCache(maxBytes int64) *StageCache { return memo.New(maxBytes) }

// AnalyzeSource parses and analyzes src, consulting Options.StageCache
// (when set) for every memoizable pipeline stage.
func AnalyzeSource(src string, opt Options) (*Report, error) {
	return AnalyzeSourceContext(context.Background(), src, opt)
}

// AnalyzeSourceContext is AnalyzeSource with cooperative cancellation
// (see AnalyzeContext for the cancellation and containment contract).
// With a nil Options.StageCache it is exactly Parse + AnalyzeContext;
// with a cache it memoizes shared-prefix artifacts on the source digest,
// so repeated analyses of one source — including with different
// algorithms — skip the already-built stages. Parse errors surface
// exactly as from Parse.
func AnalyzeSourceContext(ctx context.Context, src string, opt Options) (*Report, error) {
	if opt.StageCache == nil {
		prog, err := Parse(src)
		if err != nil {
			return nil, err
		}
		return AnalyzeContext(ctx, prog, opt)
	}
	return analyzeMemo(ctx, src, opt)
}

// srcEntry is the front-end artifact: the parsed program with procedures
// inlined and loops twice-unrolled (Lemma 1). inlined and unrolled alias
// prog when the respective transform was a no-op.
type srcEntry struct {
	prog     *Program
	inlined  *Program
	unrolled *Program
	hasLoops bool // loops in the inlined program (decides FIFO eligibility)
	// srcLen is the source text's length: parsed identifiers are
	// substrings of it, so the entry keeps the whole text alive.
	srcLen int
}

func (e *srcEntry) SizeBytes() int64 {
	sz := e.prog.SizeEstimate() + int64(e.srcLen) + 64
	if e.inlined != e.prog {
		sz += e.inlined.SizeEstimate()
	}
	if e.unrolled != e.inlined {
		sz += e.unrolled.SizeEstimate()
	}
	return sz
}

// graphEntry is the mid-pipeline artifact: the (post-FIFO) sync graph and
// the analyzer holding its CLG, ordering matrices and hypothesis tables.
type graphEntry struct {
	graph       *sg.Graph
	fifoRemoved int
	analyzer    *core.Analyzer
}

func (e *graphEntry) SizeBytes() int64 {
	return e.graph.SizeBytes() + e.analyzer.SizeBytes() + 64
}

// verdictEntry caches one detector verdict.
type verdictEntry struct{ v Verdict }

func (e *verdictEntry) SizeBytes() int64 { return 96 + witnessBytes(e.v.Witnesses) }

// enumEntry caches one cycle-enumeration verdict at a given budget.
type enumEntry struct{ v core.EnumerationVerdict }

func (e *enumEntry) SizeBytes() int64 { return 128 + witnessBytes(e.v.Witnesses) }

func witnessBytes(ws [][]int) int64 {
	sz := int64(len(ws)) * 24
	for _, w := range ws {
		sz += int64(len(w)) * 8
	}
	return sz
}

// stallEntry caches the Lemma 3/4 balance report.
type stallEntry struct{ r *StallReport }

func (e *stallEntry) SizeBytes() int64 { return 64 + int64(len(e.r.Signals))*80 }

// c4Entry caches the constraint-4 certificate.
type c4Entry struct{ free, conclusive bool }

func (e *c4Entry) SizeBytes() int64 { return 16 }

// doEntry is Cache.Do hardened against single-flight cancellation
// sharing: when a shared flight fails with a cancellation error but OUR
// context is still live, the failure belongs to the flight leader's
// deadline, not to us — retry instead of propagating it. The retry
// either finds the entry now cached, joins a fresh flight, or becomes
// the new leader and builds under its own (live) context.
func doEntry(ctx context.Context, mc *memo.Cache, key string, build func() (memo.Entry, error)) (memo.Entry, bool, error) {
	for {
		v, built, err := mc.Do(key, build)
		if err == nil || built || ctx.Err() != nil || !isCancellation(err) {
			return v, built, err
		}
	}
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// analyzeMemo is the memoized twin of AnalyzeContext: the same stages
// under the same discipline (deadline gate, span, fault point, panic
// containment), with each memoizable stage group wrapped in a
// single-flight cache transaction. On a hit the group is replaced by a
// zero-work span carrying stage_cache=hit, so traces and per-stage
// service metrics still account for every stage.
func analyzeMemo(ctx context.Context, src string, opt Options) (*Report, error) {
	mc := opt.StageCache
	digest := memo.SourceDigest(src)
	dk := digest.Key()

	tr := opt.Tracer
	if tr == nil && opt.Trace {
		tr = obs.NewTracer()
	}
	root := tr.Start("analyze") // nil span when tracing is off
	defer root.End()
	root.SetAttr("source_digest", digest.String())
	stage := stageRunner(ctx, root)

	hits, misses := 0, 0
	// hitSpan records a memoized stage group that was served from cache.
	hitSpan := func(name string) {
		hits++
		sp := root.StartChild(name)
		sp.SetAttr("stage_cache", "hit")
		sp.End()
	}
	// missSpan marks a stage span as built by this request (the flight
	// leader); followers that waited on the flight record a hit.
	missSpan := func(sp *Span) {
		sp.SetAttr("stage_cache", "miss")
	}

	// --- Front end: parse + inline + unroll, keyed on the digest alone.
	fv, built, err := doEntry(ctx, mc, "src:"+dk, func() (memo.Entry, error) {
		misses++
		e := &srcEntry{srcLen: len(src)}
		if err := stage("parse", func(sp *Span) error {
			missSpan(sp)
			p, err := Parse(src)
			if err != nil {
				return err
			}
			if err := p.Validate(); err != nil {
				return err
			}
			e.prog, e.inlined, e.unrolled = p, p, p
			return nil
		}); err != nil {
			return nil, err
		}
		if len(e.prog.Procs) > 0 || e.prog.HasCalls() {
			if err := stage("inline", func(sp *Span) error {
				missSpan(sp)
				e.inlined = e.prog.InlineCalls()
				e.unrolled = e.inlined
				return nil
			}); err != nil {
				return nil, err
			}
		}
		// The requester's limits guard the build (an unroll bomb must be
		// refused by arithmetic, not allocated); the post-build recheck
		// below applies every caller's own limits to hits too.
		if err := checkLimit("tasks", opt.Limits.MaxTasks, len(e.prog.Tasks)); err != nil {
			return nil, err
		}
		if err := checkLimit("rendezvous nodes", opt.Limits.MaxNodes, e.inlined.CountRendezvous()); err != nil {
			return nil, err
		}
		e.hasLoops = cfg.HasLoops(e.inlined)
		if e.hasLoops {
			if err := stage("unroll", func(sp *Span) error {
				missSpan(sp)
				unrolled, err := cfg.UnrollBounded(e.inlined, opt.Limits.MaxUnrolledNodes)
				if err != nil {
					return err
				}
				e.unrolled = unrolled
				if sp != nil {
					sp.Set("rendezvous_before", int64(e.inlined.CountRendezvous()))
					sp.Set("rendezvous_after", int64(e.unrolled.CountRendezvous()))
				}
				return nil
			}); err != nil {
				return nil, err
			}
		}
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	if !built {
		hitSpan("parse+unroll")
	}
	fe := fv.(*srcEntry)

	// Limits are not part of the cache key, so a hit built under someone
	// else's limits is rechecked arithmetically against ours.
	if err := checkLimit("tasks", opt.Limits.MaxTasks, len(fe.prog.Tasks)); err != nil {
		return nil, err
	}
	if err := checkLimit("rendezvous nodes", opt.Limits.MaxNodes, fe.inlined.CountRendezvous()); err != nil {
		return nil, err
	}
	if err := checkLimit("unrolled rendezvous nodes", opt.Limits.MaxUnrolledNodes, fe.unrolled.CountRendezvous()); err != nil {
		return nil, err
	}

	// The FIFO refinement rewrites the sync graph, so it is part of the
	// mid-pipeline key — as the EFFECTIVE flag (requested AND loop-free),
	// letting a FIFO request on a loopy source share the plain entry.
	effFIFO := opt.FIFO && !fe.hasLoops
	fifoKey := ":f0"
	if effFIFO {
		fifoKey = ":f1"
	}

	// --- Mid pipeline: sync graph + FIFO + CLG/ordering tables.
	gv, built, err := doEntry(ctx, mc, "an:"+dk+fifoKey, func() (memo.Entry, error) {
		misses++
		e := &graphEntry{}
		if err := stage("sync-graph", func(sp *Span) error {
			missSpan(sp)
			g, err := sg.FromProgram(fe.unrolled)
			if err != nil {
				return err
			}
			e.graph = g
			if sp != nil {
				sp.Set("tasks", int64(len(g.Tasks)))
				sp.Set("rendezvous_nodes", int64(g.NumRendezvous()))
				sp.Set("sync_edges", int64(g.NumSyncEdges()))
				sp.Set("control_edges", int64(g.NumControlEdges()))
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if effFIFO {
			if err := stage("fifo", func(sp *Span) error {
				missSpan(sp)
				info := order.Compute(e.graph)
				e.fifoRemoved = e.graph.RemoveSyncEdges(info.InfeasibleSyncPairs())
				sp.Set("removed_sync_edges", int64(e.fifoRemoved))
				return nil
			}); err != nil {
				return nil, err
			}
		}
		if err := stage("clg", func(sp *Span) error {
			missSpan(sp)
			e.analyzer = core.NewAnalyzerTraced(e.graph, sp)
			return nil
		}); err != nil {
			return nil, err
		}
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	if !built {
		hitSpan("clg")
	}
	ge := gv.(*graphEntry)

	rep := &Report{
		Program:     fe.prog,
		Unrolled:    fe.unrolled,
		Graph:       ge.graph,
		FIFORemoved: ge.fifoRemoved,
		Trace:       root,
		// A Session copy, not the shared Analyzer: advanced callers may
		// set its knobs without racing other requests on the same digest.
		Analyzer: ge.analyzer.Session(opt.Parallelism, nil),
	}
	degrade := func(reason string) {
		rep.Degraded = true
		rep.DegradedReasons = append(rep.DegradedReasons, reason)
	}

	// --- Detector verdicts, keyed per (digest, fifo, algorithm): the
	// selected algorithm and the spectrum share entries, so AllAlgorithms
	// on a warm source is five hits.
	runAlgo := func(name string, algo Algorithm) (Verdict, error) {
		key := "vd:" + dk + fifoKey + ":" + strconv.Itoa(int(algo))
		v, built, err := doEntry(ctx, mc, key, func() (memo.Entry, error) {
			misses++
			var out Verdict
			if err := stage(name, func(sp *Span) error {
				missSpan(sp)
				out = ge.analyzer.Session(opt.Parallelism, sp).Run(algo)
				return nil
			}); err != nil {
				return nil, err
			}
			return &verdictEntry{v: out}, nil
		})
		if err != nil {
			return Verdict{}, err
		}
		if !built {
			hitSpan(name)
		}
		return v.(*verdictEntry).v, nil
	}

	if rep.Deadlock, err = runAlgo("detect:"+opt.Algorithm.String(), opt.Algorithm); err != nil {
		return nil, err
	}
	if opt.AllAlgorithms {
		for _, a := range []Algorithm{
			AlgoNaive, AlgoRefined, AlgoRefinedPairs,
			AlgoRefinedHeadTail, AlgoRefinedHeadTailPairs,
		} {
			v, err := runAlgo("spectrum:"+a.String(), a)
			if err != nil {
				return nil, err
			}
			rep.Spectrum = append(rep.Spectrum, v)
		}
	}

	if opt.Constraint4 && rep.Deadlock.MayDeadlock {
		v, built, err := doEntry(ctx, mc, "c4:"+dk+fifoKey, func() (memo.Entry, error) {
			misses++
			e := &c4Entry{}
			if err := stage("constraint4", func(sp *Span) error {
				missSpan(sp)
				e.free, e.conclusive = ge.analyzer.Session(opt.Parallelism, sp).Constraint4Certify(0)
				return nil
			}); err != nil {
				return nil, err
			}
			return e, nil
		})
		if err != nil {
			return nil, err
		}
		if !built {
			hitSpan("constraint4")
		}
		c4 := v.(*c4Entry)
		rep.Constraint4Free, rep.Constraint4Conclusive = c4.free, c4.conclusive
	}

	// --- Stall balance, keyed on the digest alone: it reads the inlined
	// program, so FIFO (a sync-graph rewrite) cannot change it.
	sv, built, err := doEntry(ctx, mc, "st:"+dk, func() (memo.Entry, error) {
		misses++
		e := &stallEntry{}
		if err := stage("stall", func(sp *Span) error {
			missSpan(sp)
			e.r = stall.CheckAllLinearizations(fe.inlined)
			if sp != nil {
				sp.Set("unbalanced_signals", int64(len(e.r.Unbalanced())))
			}
			return nil
		}); err != nil {
			return nil, err
		}
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	if !built {
		hitSpan("stall")
	}
	rep.Stall = sv.(*stallEntry).r

	// --- Enumeration, keyed on the resolved budget: the verdict is a
	// deterministic function of (graph, limit), including the
	// budget-exceeded inconclusive outcome.
	if opt.Enumerate {
		lim := opt.EnumerateLimit
		if lim <= 0 {
			lim = 4096
		}
		if cerr := ctx.Err(); cerr != nil && opt.Degrade {
			degrade("enumeration skipped: " + cerr.Error())
		} else {
			key := "en:" + dk + fifoKey + ":" + strconv.Itoa(lim)
			v, built, err := doEntry(ctx, mc, key, func() (memo.Entry, error) {
				misses++
				e := &enumEntry{}
				if err := stage("enumerate", func(sp *Span) error {
					missSpan(sp)
					e.v = ge.analyzer.Session(opt.Parallelism, sp).Enumerate(lim)
					return nil
				}); err != nil {
					return nil, err
				}
				return e, nil
			})
			if err != nil {
				return nil, err
			}
			if !built {
				hitSpan("enumerate")
			}
			ev := v.(*enumEntry).v
			rep.Enumerated = &ev
			if opt.Degrade && !rep.Enumerated.Conclusive {
				degrade("enumeration budget exceeded; polynomial verdict stands")
			}
		}
	}

	switch {
	case misses == 0:
		root.SetAttr("stage_cache", "hit")
	case hits == 0:
		root.SetAttr("stage_cache", "miss")
	default:
		root.SetAttr("stage_cache", "partial")
	}

	// --- Exact wave exploration: never memoized (see runExactStage).
	if opt.Exact {
		if err := runExactStage(ctx, stage, rep, fe.inlined, opt, degrade); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
