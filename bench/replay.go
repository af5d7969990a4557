package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"time"

	siwa "repro"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sg"
	"repro/internal/stall"
	"repro/internal/waves"
)

// Replay sizes: the polynomial stages run on up to replayKeys distinct
// requests of the traced round, the exponential ones (enumeration, exact
// exploration) on the first replayHeavy distinct sources.
const (
	replayKeys  = 128
	replayHeavy = 24
)

// probe times one call and counts the heap allocations it made.
type probe struct {
	ms runtime.MemStats
}

func (p *probe) run(fn func()) (time.Duration, uint64) {
	runtime.ReadMemStats(&p.ms)
	before := p.ms.Mallocs
	t := time.Now()
	fn()
	d := time.Since(t)
	runtime.ReadMemStats(&p.ms)
	return d, p.ms.Mallocs - before
}

// replay runs the traced round's distinct requests through each layer's
// public entry point, one goroutine, after the fleet has exited, and
// returns the stage metrics.
func replay(in *inputs, keys []int32) map[string]float64 {
	if len(keys) > replayKeys {
		keys = keys[:replayKeys]
	}
	limits := siwa.DefaultLimits()
	var p probe
	var parseUs, parseAllocs, unrollUs, sgUs, sgAllocs, nodes, edges []float64
	var anUs, anAllocs, detectUs, hyps, sccs, wits, enumMs, stallUs, exactMs, reportUs, encodeUs []float64
	var front, total time.Duration
	seen := map[string]bool{}
	heavy := 0
	for _, k := range keys {
		pk := in.Keys[k]
		opt, err := libraryOptions(pk.Opts)
		if err != nil {
			continue
		}
		var prog *siwa.Program
		d, a := p.run(func() { prog, err = siwa.Parse(pk.Source) })
		if err != nil {
			continue
		}
		parseUs, parseAllocs = append(parseUs, us(d)), append(parseAllocs, float64(a))
		front += d
		inlined := prog
		if len(prog.Procs) > 0 || prog.HasCalls() {
			inlined = prog.InlineCalls()
		}
		unrolled := inlined
		if cfg.HasLoops(inlined) {
			d, _ = p.run(func() { unrolled, err = cfg.UnrollBounded(inlined, limits.MaxUnrolledNodes) })
			if err != nil {
				continue
			}
			unrollUs = append(unrollUs, us(d))
			front += d
		}
		var g *sg.Graph
		d, a = p.run(func() { g, err = sg.FromProgram(unrolled) })
		if err != nil {
			continue
		}
		sgUs, sgAllocs = append(sgUs, us(d)), append(sgAllocs, float64(a))
		nodes, edges = append(nodes, float64(g.NumRendezvous())), append(edges, float64(g.NumSyncEdges()))
		front += d
		var an *core.Analyzer
		d, a = p.run(func() { an = core.NewAnalyzer(g) })
		anUs, anAllocs = append(anUs, us(d)), append(anAllocs, float64(a))
		front += d
		an.Parallelism = 1
		var v core.Verdict
		d, _ = p.run(func() {
			v = an.Run(opt.Algorithm)
			if opt.AllAlgorithms {
				for _, al := range []siwa.Algorithm{siwa.AlgoNaive, siwa.AlgoRefined, siwa.AlgoRefinedPairs,
					siwa.AlgoRefinedHeadTail, siwa.AlgoRefinedHeadTailPairs} {
					an.Run(al)
				}
			}
		})
		detectUs = append(detectUs, us(d))
		hyps, sccs, wits = append(hyps, float64(v.Hypotheses)), append(sccs, float64(v.SCCRuns)), append(wits, float64(len(v.Witnesses)))
		total += d
		d, _ = p.run(func() { stall.CheckAllLinearizations(inlined) })
		stallUs = append(stallUs, us(d))
		total += d

		rep, err := siwa.AnalyzeSource(pk.Source, opt)
		if err != nil {
			continue
		}
		var b []byte
		d, _ = p.run(func() { b, _ = json.Marshal(rep.JSONReport()) })
		reportUs = append(reportUs, us(d))
		total += d
		// The replica's writeJSON: an indenting encoder over the response.
		var buf bytes.Buffer
		d, _ = p.run(func() {
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			enc.Encode(service.AnalyzeResponse{Report: b, ElapsedMs: 0.25})
		})
		encodeUs = append(encodeUs, us(d))

		if !seen[pk.Source] && heavy < replayHeavy {
			seen[pk.Source] = true
			heavy++
			d, _ = p.run(func() { an.Enumerate(0) })
			enumMs = append(enumMs, ms(d))
			d, _ = p.run(func() { waves.ExploreProgram(prog, waves.Options{MaxStates: 1 << 14}) })
			exactMs = append(exactMs, ms(d))
		}
	}
	total += front
	return map[string]float64{
		"lang.parse_us_mean":        mean(parseUs),
		"lang.parse_allocs_mean":    mean(parseAllocs),
		"cfg.unroll_us_mean":        mean(unrollUs),
		"sg.build_us_mean":          mean(sgUs),
		"sg.build_allocs_mean":      mean(sgAllocs),
		"sg.rendezvous_nodes_mean":  mean(nodes),
		"sg.sync_edges_mean":        mean(edges),
		"core.analyzer_us_mean":     mean(anUs),
		"core.analyzer_allocs_mean": mean(anAllocs),
		"core.detect_us_mean":       mean(detectUs),
		"core.hypotheses_mean":      mean(hyps),
		"core.scc_runs_mean":        mean(sccs),
		"core.witnesses_mean":       mean(wits),
		"core.enumerate_ms_mean":    mean(enumMs),
		"stall.us_mean":             mean(stallUs),
		"waves.exact_ms_mean":       mean(exactMs),
		"siwa.report_json_us_mean":  mean(reportUs),
		"service.encode_us_mean":    mean(encodeUs),
		"pipeline.front_share":      ratio(float64(front), float64(total)),
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
