// The analysis pipeline, and the stage cache it consults.
//
// The paper's pipeline is strictly staged, and everything up to the
// detector sweep depends only on the source (plus the FIFO refinement
// flag, which rewrites the sync graph). analyze runs that sequence once
// for every entry point, as six stage groups, each named by one key
// family of the stage cache:
//
//	src:<digest>              parse + inline + Lemma-1 unroll artifacts
//	an:<digest>:f<fifo>       the analyzer: sync graph (post-FIFO), CLG,
//	                          ordering and hypothesis tables
//	vd:<digest>:f<fifo>:<alg> one detector verdict
//	st:<digest>               stall balance (FIFO-independent: it reads the
//	                          inlined program, never the sync graph)
//	c4:<digest>:f<fifo>       constraint-4 certificate
//	en:<digest>:f<fifo>:<n>   cycle-enumeration verdict at budget n
//
// so a warm source asked for a new algorithm runs only that algorithm's
// sweep, and a warm (source, algorithm) pair runs nothing at all. Without
// a cache every group is built (memo.Cache.Do on a nil receiver), which
// is how Analyze and AnalyzeContext run: a parsed program has no content
// address to key on. The exact wave explorer is never memoized — its
// outcome depends on deadlines and cancellation, not just the source.
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
// hit or miss — rechecks its own limits against the artifact's actual
// counts, so a cache warmed by a generous caller cannot smuggle an
// oversized program past a strict one. A request that joined a build
// refused by its leader's limits builds again under its own (doEntry).
package siwa

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/sg"
	"repro/internal/stall"
	"repro/internal/waves"
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
// It runs the same stages as AnalyzeContext, preceded by a "parse" stage;
// with an Options.StageCache it memoizes shared-prefix artifacts on the
// source digest, so repeated analyses of one source — including with
// different algorithms — skip the already-built stages. Parse errors
// surface exactly as from Parse.
func AnalyzeSourceContext(ctx context.Context, src string, opt Options) (*Report, error) {
	return analyze(ctx, nil, src, opt)
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
	// syncEdges is the unrolled program's predicted sync-edge count, set
	// once the build is done (0 while it runs).
	syncEdges int64
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

// checkLimits applies l to the entry's actual sizes: the task count, the
// inlined program's rendezvous count, once the Lemma 1 unroll has run
// the unrolled count, and once the build is done the sync-edge count the
// sync graph would hold, so a dense program is refused before that graph
// exists.
func (e *srcEntry) checkLimits(l Limits) error {
	if err := checkLimit("tasks", l.MaxTasks, len(e.prog.Tasks)); err != nil {
		return err
	}
	if err := checkLimit("rendezvous nodes", l.MaxNodes, e.inlined.CountRendezvous()); err != nil {
		return err
	}
	if e.unrolled != e.inlined {
		if err := checkLimit("unrolled rendezvous nodes", l.MaxUnrolledNodes, e.unrolled.CountRendezvous()); err != nil {
			return err
		}
	}
	return checkLimit("sync edges", l.MaxSyncEdges, clampInt(e.syncEdges))
}

// The an: entry is the *core.Analyzer itself: its block holds its own
// copy of the (post-FIFO) sync graph, the CLG and the ordering facts, and
// its SizeBytes counts its slabs. The graph records the edges FIFO
// removed.

// verdictEntry caches one detector verdict, its witnesses in one slab.
type verdictEntry struct{ v Verdict }

func (e *verdictEntry) SizeBytes() int64 { return 96 + witnessBytes(e.v.Witnesses) }

// enumEntry caches one cycle-enumeration verdict at a given budget.
type enumEntry struct{ v core.EnumerationVerdict }

func (e *enumEntry) SizeBytes() int64 { return 128 + witnessBytes(e.v.Witnesses) }

// packWitnesses copies a witness list into one table and one slab,
// keeping nil lists and nil witnesses nil. Only a verdict the cache
// keeps is packed.
func packWitnesses(ws [][]int) [][]int {
	if len(ws) == 0 {
		return ws
	}
	n := 0
	for _, w := range ws {
		n += len(w)
	}
	out, slab := make([][]int, len(ws)), make([]int, 0, n)
	for i, w := range ws {
		if w != nil {
			slab = append(slab, w...)
			out[i] = slab[len(slab)-len(w) : len(slab) : len(slab)]
		}
	}
	return out
}

func witnessBytes(ws [][]int) int64 {
	sz := int64(len(ws)) * 24
	for _, w := range ws {
		sz += int64(len(w)) * 8
	}
	return sz
}

// stallEntry caches the Lemma 3/4 balance report, held in the entry.
type stallEntry struct{ r StallReport }

func (e *stallEntry) SizeBytes() int64 { return 64 + int64(cap(e.r.Signals))*80 }

// c4Entry caches the constraint-4 certificate.
type c4Entry struct{ free, conclusive bool }

func (e *c4Entry) SizeBytes() int64 { return 16 }

// doEntry is Cache.Do hardened against inheriting a failure that belongs
// to the flight leader alone: its cancellation while our context is still
// live, or its resource limits, which are not part of the key. Such a
// shared failure is retried instead of propagated. The retry either finds
// the entry now cached, joins a fresh flight, or becomes the new leader
// and builds under its own context and limits. A follower whose own
// context ends stops waiting and returns its own cancellation.
func doEntry(ctx context.Context, mc *memo.Cache, key string, build func() (memo.Entry, error)) (memo.Entry, bool, error) {
	for {
		v, built, err := mc.Do(ctx, key, build)
		if err == nil || built || !leaderOnly(ctx, err) {
			return v, built, err
		}
	}
}

// leaderOnly reports whether err, shared from another caller's build, is
// that caller's own: a limit refusal, or a cancellation ours does not share.
func leaderOnly(ctx context.Context, err error) bool {
	var re *ResourceError
	if errors.As(err, &re) {
		return true
	}
	return ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// analyze is the pipeline behind Analyze, AnalyzeContext, AnalyzeSource
// and AnalyzeSourceContext. A nil p parses src in the "parse" stage; a
// given program is validated instead. Every stage runs under the same
// discipline: deadline gate, trace span, fault injection point
// ("analyze.<name>") and panic containment. Each memoizable stage group
// is one single-flight transaction on opt.StageCache; on a hit the group
// is replaced by a zero-work span carrying stage_cache=hit, so traces and
// per-stage service metrics still account for every stage.
func analyze(ctx context.Context, p *Program, src string, opt Options) (*Report, error) {
	mc := opt.StageCache
	tr := opt.Tracer
	if tr == nil && opt.Trace {
		tr = obs.NewTracer()
	}
	root := tr.Start("analyze") // nil span when tracing is off
	defer root.End()
	var dk string // the digest part of every key; unused without a cache
	if mc != nil {
		digest := memo.SourceDigest(src)
		dk = digest.Key()
		root.SetAttr("source_digest", digest.String())
	}

	hits, misses := 0, 0
	building := false // a group build is running on a cache
	// stage runs one pipeline step. A panic anywhere inside fn becomes a
	// typed *InternalError carrying the stage name and stack — never a
	// crash. On a cache, a stage span inside a group says stage_cache=miss:
	// this request built it.
	stage := func(name string, fn func(sp *Span) error) (err error) {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("analyze: cancelled before %s: %w", name, cerr)
		}
		sp := root.StartChild(name)
		defer sp.End()
		if building {
			sp.SetAttr("stage_cache", "miss")
		}
		defer func() {
			if r := recover(); r != nil {
				err = &InternalError{Stage: name, Value: r, Stack: string(debug.Stack())}
			}
		}()
		if ferr := fault.Inject("analyze." + name); ferr != nil {
			return fmt.Errorf("analyze: stage %s: %w", name, ferr)
		}
		return fn(sp)
	}
	// group returns the entry under key, running build on a miss. A
	// follower of another request's flight records a hit, like a warm one.
	group := func(key, hitName string, build func() (memo.Entry, error)) (memo.Entry, error) {
		v, built, err := doEntry(ctx, mc, key, func() (memo.Entry, error) {
			misses++
			building = mc != nil
			defer func() { building = false }()
			return build()
		})
		if err == nil && !built {
			hits++
			sp := root.StartChild(hitName)
			sp.SetAttr("stage_cache", "hit")
			sp.End()
		}
		return v, err
	}

	// --- Front end: parse + inline + unroll, keyed on the digest alone.
	fv, err := group("src:"+dk, "parse+unroll", func() (memo.Entry, error) {
		e := &srcEntry{prog: p, srcLen: len(src)}
		if p == nil {
			if err := stage("parse", func(*Span) (err error) {
				if e.prog, err = Parse(src); err != nil {
					return err
				}
				return e.prog.Validate()
			}); err != nil {
				return nil, err
			}
		} else if err := p.Validate(); err != nil {
			return nil, err
		}
		e.inlined = e.prog
		if len(e.prog.Procs) > 0 || e.prog.HasCalls() {
			if err := stage("inline", func(*Span) error {
				e.inlined = e.prog.InlineCalls()
				return nil
			}); err != nil {
				return nil, err
			}
		}
		e.unrolled = e.inlined
		// The builder's limits guard the unroll, so an unroll bomb is
		// refused by arithmetic before it is allocated.
		if err := e.checkLimits(opt.Limits); err != nil {
			return nil, err
		}
		if e.hasLoops = cfg.HasLoops(e.inlined); e.hasLoops {
			if err := stage("unroll", func(sp *Span) (err error) {
				// UnrollBounded predicts the 2^depth growth of Lemma 1.
				if e.unrolled, err = cfg.UnrollBounded(e.inlined, opt.Limits.MaxUnrolledNodes); err == nil && sp != nil {
					sp.Set("rendezvous_before", int64(e.inlined.CountRendezvous()))
					sp.Set("rendezvous_after", int64(e.unrolled.CountRendezvous()))
				}
				return err
			}); err != nil {
				return nil, err
			}
		}
		e.syncEdges = e.unrolled.CountSyncEdges()
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	fe := fv.(*srcEntry)
	// The entry may have been built under someone else's limits.
	if err := fe.checkLimits(opt.Limits); err != nil {
		return nil, err
	}

	// The FIFO refinement rewrites the sync graph, so it is part of the
	// mid-pipeline key — as the EFFECTIVE flag (requested AND loop-free),
	// letting a FIFO request on a loopy source share the plain entry. It
	// is only valid on the program's own loop-free graph: on a
	// twice-unrolled graph, later loop iterations collapse onto the
	// second copy and real diagonal pairings (instance k with instance k,
	// k > 2) can map to copy pairs the refinement deletes.
	fifo := opt.FIFO && !fe.hasLoops
	fk := ":f0"
	if fifo {
		fk = ":f1"
	}

	// --- Mid pipeline: sync graph + FIFO + CLG/ordering tables.
	gv, err := group("an:"+dk+fk, "clg", func() (memo.Entry, error) {
		var g *sg.Graph
		err := stage("sync-graph", func(sp *Span) (err error) {
			if g, err = sg.FromProgram(fe.unrolled); err == nil && sp != nil {
				sp.Set("tasks", int64(len(g.Tasks)))
				sp.Set("rendezvous_nodes", int64(g.NumRendezvous()))
				sp.Set("sync_edges", int64(g.NumSyncEdges()))
				sp.Set("control_edges", int64(g.NumControlEdges()))
			}
			return err
		})
		if err == nil && fifo {
			err = stage("fifo", func(sp *Span) error {
				sp.Set("removed_sync_edges", int64(g.RemoveSyncEdges(order.Compute(g).InfeasibleSyncPairs())))
				return nil
			})
		}
		var a *core.Analyzer
		if err == nil {
			err = stage("clg", func(sp *Span) error {
				a = core.NewAnalyzerTraced(g, sp)
				return nil
			})
		}
		if err != nil {
			return nil, err
		}
		return a, nil
	})
	if err != nil {
		return nil, err
	}
	an := gv.(*core.Analyzer)

	rep := &Report{
		Program:     fe.prog,
		Unrolled:    fe.unrolled,
		Graph:       an.SG,
		FIFORemoved: an.SG.RemovedSyncEdges(),
		Trace:       root,
		// A Session copy, not the shared Analyzer: advanced callers may
		// set its knobs without racing other requests on the same digest.
		Analyzer: an.Session(opt.Parallelism, nil),
	}
	degrade := func(reason string) {
		rep.Degraded = true
		rep.DegradedReasons = append(rep.DegradedReasons, reason)
	}

	// --- Detector verdicts, keyed per (digest, fifo, algorithm): the
	// selected algorithm and the spectrum share entries, so AllAlgorithms
	// on a warm source is five hits. Each detector stage runs on a
	// Session bound to its own span, so the marking and SCC counters land
	// on the stage that caused them.
	runAlgo := func(name string, algo Algorithm) (Verdict, error) {
		v, err := group("vd:"+dk+fk+":"+strconv.Itoa(int(algo)), name, func() (memo.Entry, error) {
			e := &verdictEntry{}
			return e, stage(name, func(sp *Span) error {
				e.v = an.Session(opt.Parallelism, sp).Run(algo)
				if mc != nil {
					e.v.Witnesses = packWitnesses(e.v.Witnesses)
				}
				return nil
			})
		})
		if err != nil {
			return Verdict{}, err
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
		v, err := group("c4:"+dk+fk, "constraint4", func() (memo.Entry, error) {
			e := &c4Entry{}
			return e, stage("constraint4", func(sp *Span) error {
				e.free, e.conclusive = an.Session(opt.Parallelism, sp).Constraint4Certify(0)
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		c4 := v.(*c4Entry)
		rep.Constraint4Free, rep.Constraint4Conclusive = c4.free, c4.conclusive
	}

	// --- Stall balance, keyed on the digest alone: it reads the inlined
	// program, so FIFO (a sync-graph rewrite) cannot change it. It runs
	// before the expensive optional stages so that a degraded report
	// always carries both polynomial verdicts.
	sv, err := group("st:"+dk, "stall", func() (memo.Entry, error) {
		e := &stallEntry{}
		return e, stage("stall", func(sp *Span) error {
			e.r = *stall.CheckAllLinearizations(fe.inlined)
			if sp != nil {
				sp.Set("unbalanced_signals", int64(len(e.r.Unbalanced())))
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	rep.Stall = &sv.(*stallEntry).r

	// --- Enumeration, keyed on the resolved budget: the verdict is a
	// deterministic function of (graph, limit), including the
	// budget-exceeded inconclusive outcome.
	if opt.Enumerate {
		lim := opt.EnumerateLimit
		if lim <= 0 {
			lim = core.DefaultEnumerateLimit
		}
		if cerr := ctx.Err(); cerr != nil && opt.Degrade {
			degrade("enumeration skipped: " + cerr.Error())
		} else {
			v, err := group("en:"+dk+fk+":"+strconv.Itoa(lim), "enumerate", func() (memo.Entry, error) {
				e := &enumEntry{}
				return e, stage("enumerate", func(sp *Span) error {
					e.v = an.Session(opt.Parallelism, sp).Enumerate(lim)
					if mc != nil {
						e.v.Witnesses = packWitnesses(e.v.Witnesses)
					}
					return nil
				})
			})
			if err != nil {
				return nil, err
			}
			ev := v.(*enumEntry).v
			rep.Enumerated = &ev
			if opt.Degrade && !ev.Conclusive {
				degrade("enumeration budget exceeded; polynomial verdict stands")
			}
		}
	}

	if mc != nil {
		switch {
		case misses == 0:
			root.SetAttr("stage_cache", "hit")
		case hits == 0:
			root.SetAttr("stage_cache", "miss")
		default:
			root.SetAttr("stage_cache", "partial")
		}
	}

	// --- Exact wave exploration: never memoized. Its outcome depends on
	// deadlines, budgets and cancellation, not just the program, so a
	// cached result could replay one request's truncation into another's.
	if !opt.Exact {
		return rep, nil
	}
	if cerr := ctx.Err(); cerr != nil && opt.Degrade {
		degrade("exact exploration skipped: " + cerr.Error())
		return rep, nil
	}
	if err := stage("exact-waves", func(sp *Span) error {
		// The exact path expands bounded loops precisely; predict that
		// growth too, so "loop 64 times" nests are refused, not paid.
		if max := opt.Limits.MaxUnrolledNodes; max > 0 {
			if n := cfg.PredictExpandedRendezvous(fe.inlined); n > int64(max) {
				return &ResourceError{Resource: "expanded rendezvous nodes", Limit: max, Actual: clampInt(n)}
			}
		}
		eg, err := waves.ExploreProgramGraph(fe.prog, opt.ExactOptions.LoopExpansionLimit)
		if err != nil {
			return err
		}
		rep.ExactGraph = eg
		eo := opt.ExactOptions
		if eo.Cancel == nil && ctx.Done() != nil {
			eo.Cancel = func() bool { return ctx.Err() != nil }
		}
		eo.Trace = sp
		rep.Exact = waves.Explore(eg, eo)
		return nil
	}); err != nil {
		return nil, err
	}
	switch {
	case rep.Exact.Cancelled:
		if !opt.Degrade {
			return nil, fmt.Errorf("analyze: cancelled during exact waves: %w", ctx.Err())
		}
		degrade("exact exploration hit the deadline; polynomial verdict stands")
	case rep.Exact.Truncated && opt.Degrade:
		degrade("exact exploration hit the state budget; polynomial verdict stands")
	}
	return rep, nil
}
