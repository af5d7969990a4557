package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/service"
	"repro/internal/workload"
)

// spec is one workload's frozen shape. Rates, limits and list sizes are
// part of the benchmark definition: changing any of them makes earlier
// records incomparable, and compare refuses to pair records whose specs
// differ.
type spec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Open selects an open loop at Rate requests/s, whose singles travel
	// over Clients connections and whose batches and heavies over as many
	// more; otherwise Clients closed-loop clients each wait for their
	// reply. hot-repeat uses four clients on this two-core machine: its
	// requests are so short that with two the cores idled between round
	// trips, and runs of the same code split into a fast and a slow mode.
	// algo-sweep and cold-batch use two: their requests keep both cores
	// busy, and with four the tail measured the scheduler's queue and
	// wandered with the host's load.
	Open    bool    `json:"open"`
	Clients int     `json:"clients"`
	Rate    float64 `json:"rate,omitempty"`
	// LimitMs is the latency limit slo_attainment counts against: about
	// the seed's p95, rounded up to a 1-2-5 step.
	LimitMs float64 `json:"limitMs"`
	// UnitsPerSec sizes a closed-loop request list: about the units per
	// second the fleet finished when the benchmark was defined, so a
	// round's list of UnitsPerSec x round seconds units lasts about the
	// round's share of --seconds. A unit is what one client sends in
	// order: one request, or one source's sweep of algorithms.
	UnitsPerSec float64 `json:"unitsPerSec,omitempty"`
	// Warmup is how many units the set-up phase sends before timing.
	Warmup int `json:"warmup"`
	// Batch is the number of programs per batch request.
	Batch int `json:"batch,omitempty"`
}

// workloads is the frozen benchmark definition, the workloads
// BENCHMARK.json lists, in the order a full invocation rotates through
// them.
var workloads = []spec{
	{
		Name:        "hot-repeat",
		Why:         "zipf(1.1) draws from a warmed pool of 256 programs: the result cache answers, so the gateway hop, the wire and JSON encoding do the work",
		Clients:     4,
		LimitMs:     2,
		UnitsPerSec: 7000,
		Warmup:      poolSize,
	},
	{
		Name:        "cold-batch",
		Why:         "batches of 32 unique programs: digest scatter, in-order merge, batch fan-out and the whole cold pipeline; every program misses both caches and the result cache evicts",
		Clients:     2,
		LimitMs:     50,
		UnitsPerSec: 150,
		Warmup:      8,
		Batch:       32,
	},
	{
		Name:        "algo-sweep",
		Why:         "each unique source is asked for five detectors and then allAlgorithms: every request misses the result cache while the stage cache serves the front end",
		Clients:     2,
		LimitMs:     2,
		UnitsPerSec: 600,
		Warmup:      16,
	},
}

// openMix is the open-loop workload. It runs only when named, and
// BENCHMARK.json does not list it: on a shared two-vCPU virtual machine an
// open loop keeps sending while the host holds the machine's cores, so its
// latencies measure the host as much as the fleet. Ten runs of the same
// code spread by 0.07-0.38 of the median at p99 and up to 0.17 at p50,
// past or near the widest bound a gated metric may have.
var openMix = spec{
	Name:    "open-mix",
	Why:     "Poisson hot and cold singles at a fixed rate beside periodic background batches and heavies: the singles' tail shows how they queue behind heavy work in the fleet",
	Open:    true,
	Clients: 2,
	Rate:    700,
	LimitMs: 10,
	Warmup:  poolSize,
	Batch:   16,
}

// allSpecs is every workload the program can run: the benchmark's, then
// open-mix.
func allSpecs() []spec { return append(workloads[:len(workloads):len(workloads)], openMix) }

func specByName(name string) (spec, bool) {
	for _, s := range allSpecs() {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// poolSize is the number of programs in the hot pool, and zipfS the
// exponent of the popularity draw over it.
const (
	poolSize = 256
	zipfS    = 1.1
)

// algoSweep is the order in which algo-sweep asks about each source.
// k-pairs and enumerate are left out: their budgeted exhaustive phases
// have tails two orders of magnitude above the polynomial detectors.
var algoSweep = []service.WireOptions{
	{Algorithm: "naive"},
	{Algorithm: "refined"},
	{Algorithm: "pairs"},
	{Algorithm: "head-tail"},
	{Algorithm: "ht-pairs"},
	{AllAlgorithms: true},
}

// family names a program generator from internal/workload.
type family uint8

const (
	famPipeline family = iota
	famClientServer
	famBarrier
	famRing
	famRingBroken
	famCrossRing
	famNestedLoops
	famRandom
	numFamilies
	// Heavy-request families, drawn only by open-mix. Their cost is the
	// same for every draw, so how long the heavies hold the fleet does not
	// change with the seed.
	famCrossRing52
	famForkFan
)

var familyNames = map[family]string{
	famPipeline: "Pipeline", famClientServer: "ClientServer", famBarrier: "Barrier",
	famRing: "Ring", famRingBroken: "RingBroken", famCrossRing: "CrossRing",
	famNestedLoops: "NestedLoops", famRandom: "Random", famCrossRing52: "CrossRing(5,2)",
	famForkFan: "ForkFan",
}

func (f family) String() string { return familyNames[f] }

// genProgram draws one program of family f. Sizes stay small enough that
// a cold analysis takes well under a millisecond, so one slow draw cannot
// dominate a round.
func genProgram(rng *rand.Rand, f family) *lang.Program {
	switch f {
	case famPipeline:
		return workload.Pipeline(3+rng.Intn(3), 1+rng.Intn(3))
	case famClientServer:
		return workload.ClientServer(2 + rng.Intn(4))
	case famBarrier:
		return workload.Barrier(2+rng.Intn(2), 1+rng.Intn(2))
	case famRing:
		return workload.Ring(3 + rng.Intn(4))
	case famRingBroken:
		return workload.RingBroken(3 + rng.Intn(4))
	case famCrossRing:
		return workload.CrossRing(3+rng.Intn(3), 1+rng.Intn(2))
	case famNestedLoops:
		return workload.NestedLoops(1+rng.Intn(2), 2+rng.Intn(2))
	case famRandom:
		return workload.Random(rng, workload.Config{
			Tasks: 3 + rng.Intn(2), StmtsPerTask: 3, Msgs: 2,
			BranchProb: 0.2, LoopProb: 0.15, MaxDepth: 2, AcceptRatio: 0.5,
		})
	case famCrossRing52:
		return workload.CrossRing(5, 2)
	case famForkFan:
		return workload.ForkFan(5, 3)
	}
	panic(fmt.Sprintf("unknown family %d", f))
}

// progKey is one distinct (source, options) pair: the unit the oracle
// answers and the result cache keys on.
type progKey struct {
	Source string
	Opts   service.WireOptions
	Family family
	Loops  bool
}

// request is one HTTP request of a workload, with its body prebuilt.
type request struct {
	Batch bool
	Class reqClass
	Body  []byte
	Keys  []int32       // oracle key per program, in request order
	Due   time.Duration // open loop: send time relative to the round start
}

// reqClass tags open-mix requests; latency metrics count singles only.
type reqClass uint8

const (
	classHot reqClass = iota
	classCold
	classBatch
	classHeavy
)

// inputs is everything one workload sends, generated from the seed before
// any fleet starts. A closed loop replays the same list in every round
// against a fresh fleet. An open loop gets its own schedule per round, so
// a run's tail latency averages over as many arrival sequences as rounds.
type inputs struct {
	Spec   spec
	Keys   []progKey
	Warmup [][]*request // closed-loop units sent during set-up
	Units  [][]*request // closed loop: one client sends a unit's requests in order
	Scheds [][]*request // open loop: per round, requests with due times
	index  map[string]int32
}

func (in *inputs) key(source string, opts service.WireOptions, f family, loops bool) int32 {
	ob, _ := json.Marshal(opts) // a struct of plain fields always marshals
	k := source + "\x00" + string(ob)
	if id, ok := in.index[k]; ok {
		return id
	}
	id := int32(len(in.Keys))
	in.index[k] = id
	in.Keys = append(in.Keys, progKey{Source: source, Opts: opts, Family: f, Loops: loops})
	return id
}

// single builds a POST /v1/analyze request.
func (in *inputs) single(source string, opts service.WireOptions, f family, loops bool, class reqClass) *request {
	o := opts
	body, err := json.Marshal(service.AnalyzeRequest{Source: source, Options: &o})
	if err != nil {
		panic(err) // plain strings and bools always marshal
	}
	return &request{Class: class, Body: body, Keys: []int32{in.key(source, opts, f, loops)}}
}

// batch builds a POST /v1/analyze/batch request over progs, all asked with
// the batch-level opts.
func (in *inputs) batch(progs []sourced, opts service.WireOptions, class reqClass) *request {
	req := service.BatchRequest{Options: &opts}
	r := &request{Batch: true, Class: class}
	for i, p := range progs {
		req.Programs = append(req.Programs, service.BatchProgram{ID: fmt.Sprint(i), Source: p.source})
		r.Keys = append(r.Keys, in.key(p.source, opts, p.family, p.loops))
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	r.Body = body
	return r
}

// warmPool makes the first Warmup pool requests the warm-up list, one
// request per unit.
func (in *inputs) warmPool(reqs []*request) {
	for _, r := range reqs[:min(in.Spec.Warmup, len(reqs))] {
		in.Warmup = append(in.Warmup, []*request{r})
	}
}

// sourced is a rendered program with the facts the input summary needs.
type sourced struct {
	source string
	family family
	loops  bool
}

// generator draws programs for one workload from one seeded stream.
type generator struct {
	rng  *rand.Rand
	tag  string // seed-specific prefix of unique-source comments
	next int    // unique-source counter
}

func render(p *lang.Program, f family) sourced {
	return sourced{source: p.String(), family: f, loops: cfg.HasLoops(p)}
}

// unique draws a program of family f and makes its source unique with an
// id comment, which changes the digest but not the analysis.
func (g *generator) unique(f family) sourced {
	s := render(genProgram(g.rng, f), f)
	s.source += fmt.Sprintf("-- id %s-%d\n", g.tag, g.next)
	g.next++
	return s
}

func (g *generator) uniqueAny() sourced { return g.unique(family(g.rng.Intn(int(numFamilies)))) }

// pool draws the hot pool: families cycle with the rank, so the most
// popular ranks cover every family whatever the seed, and the per-seed
// cost of the head of the zipf draw stays close across seeds.
func (g *generator) pool() []sourced {
	out := make([]sourced, poolSize)
	for i := range out {
		f := family(i % int(numFamilies))
		out[i] = render(genProgram(g.rng, f), f)
		// Pool sources also carry a seed tag: two seeds never share a
		// digest, so caches cannot carry one seed's work into another.
		out[i].source += fmt.Sprintf("-- pool %s-%d\n", g.tag, i)
	}
	return out
}

// genInputs builds the inputs of workload s for seed, with closed-loop
// lists sized for roundSeconds of measurement and, for an open loop,
// scheds schedules of roundSeconds each.
func genInputs(s spec, seed int64, roundSeconds float64, scheds int) *inputs {
	// One stream per (seed, workload): adding a workload never changes
	// another's inputs.
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, s.Name)))
	var sd int64
	for _, b := range h[:8] {
		sd = sd<<8 | int64(b)
	}
	g := &generator{rng: rand.New(rand.NewSource(sd)), tag: fmt.Sprintf("s%d", seed)}
	in := &inputs{Spec: s, index: map[string]int32{}}
	units := int(math.Ceil(s.UnitsPerSec * roundSeconds))
	pairs := service.WireOptions{Algorithm: "pairs"}
	switch s.Name {
	case "hot-repeat":
		pool := g.pool()
		reqs := make([]*request, len(pool))
		for i, p := range pool {
			reqs[i] = in.single(p.source, pairs, p.family, p.loops, classHot)
		}
		in.warmPool(reqs)
		z := rand.NewZipf(g.rng, zipfS, 1, poolSize-1)
		for i := 0; i < units; i++ {
			in.Units = append(in.Units, []*request{reqs[z.Uint64()]})
		}
	case "cold-batch":
		mk := func() []*request {
			progs := make([]sourced, s.Batch)
			for i := range progs {
				progs[i] = g.uniqueAny()
			}
			opts := service.WireOptions{Algorithm: "refined"}
			if g.rng.Intn(2) == 0 {
				opts = pairs
			}
			return []*request{in.batch(progs, opts, classBatch)}
		}
		for i := 0; i < s.Warmup; i++ {
			in.Warmup = append(in.Warmup, mk())
		}
		for i := 0; i < units; i++ {
			in.Units = append(in.Units, mk())
		}
	case "algo-sweep":
		mk := func() []*request {
			p := g.uniqueAny()
			unit := make([]*request, len(algoSweep))
			for i, o := range algoSweep {
				unit[i] = in.single(p.source, o, p.family, p.loops, classCold)
			}
			return unit
		}
		for i := 0; i < s.Warmup; i++ {
			in.Warmup = append(in.Warmup, mk())
		}
		for i := 0; i < units; i++ {
			in.Units = append(in.Units, mk())
		}
	case "open-mix":
		pool := g.pool()
		hot := make([]*request, len(pool))
		for i, p := range pool {
			hot[i] = in.single(p.source, pairs, p.family, p.loops, classHot)
		}
		in.warmPool(hot)
		z := rand.NewZipf(g.rng, zipfS, 1, poolSize-1)
		end := time.Duration(roundSeconds * float64(time.Second))
		// Interactive singles (78% hot and 15% cold of all requests)
		// arrive as a Poisson process. Background batches (5%) and heavies
		// (2%) arrive on a fixed period, like scheduled jobs: every round
		// then carries the same background load, and the interactive tail
		// is not decided by a few chance bursts of batches.
		period := func(share float64) time.Duration {
			return time.Duration(float64(time.Second) / (s.Rate * share))
		}
		for k := 0; k < scheds; k++ {
			var sched []*request
			for t := time.Duration(0); ; {
				t += time.Duration(g.rng.ExpFloat64() / (s.Rate * 0.93) * float64(time.Second))
				if t >= end {
					break
				}
				var r *request
				if g.rng.Float64() < 0.78/0.93 {
					h := hot[z.Uint64()]
					r = &request{Class: h.Class, Body: h.Body, Keys: h.Keys}
				} else {
					p := g.uniqueAny()
					o := service.WireOptions{Algorithm: "refined"}
					if g.rng.Intn(2) == 0 {
						o = pairs
					}
					r = in.single(p.source, o, p.family, p.loops, classCold)
				}
				r.Due = t
				sched = append(sched, r)
			}
			for t := period(0.05) / 2; t < end; t += period(0.05) {
				progs := make([]sourced, s.Batch)
				for i := range progs {
					progs[i] = g.uniqueAny()
				}
				r := in.batch(progs, service.WireOptions{Algorithm: "refined"}, classBatch)
				r.Due = t
				sched = append(sched, r)
			}
			for i, t := 0, period(0.02)/4; t < end; i, t = i+1, t+period(0.02) {
				var r *request
				if i%2 == 0 {
					p := g.unique(famCrossRing52)
					r = in.single(p.source, service.WireOptions{Algorithm: "enumerate"}, p.family, p.loops, classHeavy)
				} else {
					p := g.unique(famForkFan)
					r = in.single(p.source, service.WireOptions{Algorithm: "pairs", Exact: true}, p.family, p.loops, classHeavy)
				}
				r.Due = t
				sched = append(sched, r)
			}
			sort.SliceStable(sched, func(a, b int) bool { return sched[a].Due < sched[b].Due })
			in.Scheds = append(in.Scheds, sched)
		}
	default:
		panic("unknown workload " + s.Name)
	}
	return in
}
