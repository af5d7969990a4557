// Command bench is the end-to-end benchmark of a siwa fleet: two
// service replicas behind one cluster gateway, in a separate process,
// driven over loopback HTTP by seeded workloads whose every answer is
// checked against the library oracle. See README.md.
//
// Run it from the repository root:
//
//	bash bench/run.sh                              every workload but open-mix, tracing off
//	bash bench/run.sh --workload hot-repeat --seed 2
//	bash bench/run.sh --trace 1                    per-layer metrics
//	bash bench/run.sh compare A.json B.json        apply the bounds to two records
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is the measured time per workload and invocation; it
// equals run_seconds in BENCHMARK.json. An end-to-end run splits it into
// rounds, each with a fresh fleet: ten short rounds gave steadier medians
// than a few long ones.
const (
	defaultSeconds = 25
	rounds         = 10
)

func main() {
	if mode, ok := os.LookupEnv(fleetEnv); ok {
		os.Exit(fleetExit(mode))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	// The load generator keeps every response until its round ends;
	// collecting rarely keeps its pauses out of the fleet's latencies.
	debug.SetGCPercent(400)
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to run: all (every one but open-mix), or one of "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	out := fs.String("out", "", "write the full record as JSON to this file")
	traceOut := fs.String("trace-out", "", "traced run: write every span and client request to this file")
	fs.Parse(os.Args[1:])

	var specs []spec
	if *name == "all" {
		specs = workloads
	} else if s, ok := specByName(*name); ok {
		specs = []spec{s}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q (valid: all, %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "-trace must be 0 or 1 and -seconds positive")
		os.Exit(2)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Rounds: rounds, Trace: *trace == 1}
	rec, dump, err := run(context.Background(), specs, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" && dump != nil {
		if err := writeJSON(*traceOut, dump); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	printTable(os.Stdout, rec)
	printResult(os.Stdout, rec)
	if !rec.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, s := range allSpecs() {
		names = append(names, s.Name)
	}
	return strings.Join(names, ", ")
}

// runConfig is one invocation's settings.
type runConfig struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Rounds  int     `json:"rounds"`
	Trace   bool    `json:"trace"`
}

// env is what a record was measured on and with; compare refuses to pair
// records whose env differs in anything but the revision.
type env struct {
	runConfig
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	FleetProcs int     `json:"fleetGomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Revision   string  `json:"revision"`
	Specs      []spec  `json:"specs"`
	PoolSize   int     `json:"poolSize"`
	Zipf       float64 `json:"zipf"`
}

type record struct {
	Env       env               `json:"env"`
	Workloads []*workloadRecord `json:"workloads"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
}

type workloadRecord struct {
	Name      string              `json:"name"`
	Metrics   map[string]*summary `json:"metrics"`
	Samples   []int               `json:"latencySamples"` // per end-to-end round, behind p50 and p99
	Rounds    []roundInfo         `json:"rounds"`
	Input     map[string]float64  `json:"input"`
	Layers    map[string]float64  `json:"layers,omitempty"`
	Join      *joinStats          `json:"join,omitempty"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Failures  []string            `json:"failures,omitempty"`
}

type roundInfo struct {
	Traced   bool    `json:"traced"`
	Seconds  float64 `json:"seconds"`
	Requests int     `json:"requests"`
	Cut      bool    `json:"cut,omitempty"` // the time cap stopped the list early
	LagP50Ms float64 `json:"lagP50Ms"`
	LagP99Ms float64 `json:"lagP99Ms"`
	// Valid is false for an open-loop round whose generator ran maxLagMs
	// or more late at p99: it measured the generator, not the fleet.
	Valid bool `json:"valid"`
}

// maxLagMs is the open-loop validity guard. Latency is timed from each
// request's due time, so a late generator inflates it. On a 2-vCPU VM an
// idle-woken thread is about 1 ms late at p99 while the fleet runs (the
// same measured in a separate process), so the guard sits above that.
const maxLagMs = 2.5

// traceDump is the traced run's raw material, written by -trace-out.
type traceDump struct {
	Workload string        `json:"workload"`
	Clients  []clientTrace `json:"clients"`
	Spans    []span        `json:"spans"`
}

// clientTrace is one request as the load generator saw it; times are
// nanoseconds from the start of the measured phase.
type clientTrace struct {
	Trace    string   `json:"t"`
	Class    reqClass `json:"class"` // 0 hot, 1 cold, 2 batch, 3 heavy
	Start    int64    `json:"start"` // due (open loop) or send time
	Sent     int64    `json:"sent"`
	ConnWait int64    `json:"connWait"`
	End      int64    `json:"end"`
	Status   int      `json:"status"`
}

// run executes the plan: every round of every workload, rotating through
// the workloads, then the oracle and the scoring.
func run(ctx context.Context, specs []spec, cfg runConfig) (*record, []traceDump, error) {
	perRound := cfg.Seconds / float64(cfg.Rounds)
	plan := make([]bool, cfg.Rounds) // traced flag per round
	scheds := cfg.Rounds
	if cfg.Trace {
		// One untraced round, the overhead base, then one traced round of
		// the same inputs.
		perRound, plan, scheds = cfg.Seconds/2, []bool{false, true}, 1
	}
	d := time.Duration(perRound * float64(time.Second))
	ins := make([]*inputs, len(specs))
	for i, s := range specs {
		ins[i] = genInputs(s, cfg.Seed, perRound, scheds)
	}
	rounds := make([][]*roundOut, len(specs))
	for ri, traced := range plan {
		for i, s := range specs {
			fmt.Fprintf(os.Stderr, "bench: %s round %d/%d%s\n", s.Name, ri+1, len(plan), map[bool]string{true: " (traced)"}[traced])
			tidHi := uint64(cfg.Seed)<<20 | uint64(i)<<8 | uint64(ri)
			// An end-to-end round is preceded by a set-up trial: the
			// warm-up of a fresh process varies by a factor of two, so
			// set-up gets twice the samples.
			lengths := []time.Duration{0, d}
			if cfg.Trace {
				lengths = lengths[1:]
			}
			for _, length := range lengths {
				ro, err := runRound(ctx, ins[i], ri, length, traced, tidHi)
				if err != nil {
					return nil, nil, fmt.Errorf("%s round %d: %w", s.Name, ri+1, err)
				}
				rounds[i] = append(rounds[i], ro)
			}
		}
	}
	rec := &record{Env: currentEnv(cfg), Correct: true}
	var dumps []traceDump
	for i, s := range specs {
		in := ins[i]
		wr, dump := scoreWorkload(s, in, rounds[i], cfg)
		rec.Workloads = append(rec.Workloads, wr)
		rec.Attempted += wr.Attempted
		rec.Failed += wr.Failed
		if wr.Failed > 0 || len(wr.Failures) > 0 {
			rec.Correct = false
		}
		if dump != nil {
			dumps = append(dumps, *dump)
		}
		rec.Env.FleetProcs = rounds[i][len(rounds[i])-1].Fleet.GOMAXPROCS
	}
	return rec, dumps, nil
}

// scoreWorkload checks one workload's rounds against the oracle and
// derives its metrics.
func scoreWorkload(s spec, in *inputs, rounds []*roundOut, cfg runConfig) (*workloadRecord, *traceDump) {
	seen := map[int32]bool{}
	var need []int32
	var tracedKeys []int32
	tracedSeen := map[int32]bool{}
	for _, ro := range rounds {
		for _, rs := range [][]result{ro.Warm, ro.Results} {
			for i := range rs {
				for _, k := range rs[i].Req.Keys {
					if !seen[k] {
						seen[k] = true
						need = append(need, k)
					}
				}
			}
		}
		if ro.Traced {
			for i := range ro.Results {
				for _, k := range ro.Results[i].Req.Keys {
					if !tracedSeen[k] {
						tracedSeen[k] = true
						tracedKeys = append(tracedKeys, k)
					}
				}
			}
		}
	}
	ex, failures := oracle(in, need, cfg.Seed)
	wr := &workloadRecord{Name: s.Name, Metrics: map[string]*summary{}}
	if len(failures) > 20 {
		failures = append(failures[:20], fmt.Sprintf("... and %d more", len(failures)-20))
	}
	wr.Failures = failures
	values := map[string][]float64{}
	var measured []*roundOut
	var scores []roundScore
	var untracedRounds []*roundOut
	for _, ro := range rounds {
		wa, wf := warmFailures(ro, ex)
		wr.Attempted += wa
		wr.Failed += wf
		if ro.Trial {
			values["setup_s"] = append(values["setup_s"], ro.Setup.Seconds())
			continue
		}
		measured = append(measured, ro)
		sc := score(s, ro, ex)
		scores = append(scores, sc)
		wr.Attempted += sc.Attempted
		wr.Failed += sc.Failed
		wr.Rounds = append(wr.Rounds, roundInfo{
			Traced: ro.Traced, Seconds: ro.Window.Seconds(), Requests: len(ro.Results),
			Cut: ro.Cut, LagP50Ms: sc.LagP50Ms, LagP99Ms: sc.LagP99Ms, Valid: !s.Open || sc.LagP99Ms < maxLagMs,
		})
		if ro.Traced {
			continue
		}
		untracedRounds = append(untracedRounds, ro)
		wr.Samples = append(wr.Samples, sc.Samples)
		for k, v := range sc.Values {
			values[k] = append(values[k], v)
		}
	}
	for _, m := range endToEnd {
		wr.Metrics[m.Name] = summarize(m.Unit, values[m.Name])
	}
	wr.Input = inputSummary(in, untracedRounds, ex)
	if !cfg.Trace {
		return wr, nil
	}
	layers, js := layerMetrics(measured[0], measured[1], scores[0], scores[1], len(tracedKeys))
	for k, v := range replay(in, tracedKeys) {
		layers[k] = v
	}
	wr.Layers, wr.Join = layers, &js
	dump := &traceDump{Workload: s.Name, Spans: measured[1].Fleet.Spans}
	for _, r := range measured[1].Results {
		dump.Clients = append(dump.Clients, clientTrace{
			Trace: r.Trace, Class: r.Req.Class, Start: int64(r.Start), Sent: int64(r.Sent),
			ConnWait: int64(r.ConnWait), End: int64(r.End), Status: r.Status,
		})
	}
	return wr, dump
}

func currentEnv(cfg runConfig) env {
	e := env{
		runConfig:  cfg,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Revision:   "unknown",
		Specs:      allSpecs(),
		PoolSize:   poolSize,
		Zipf:       zipfS,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			e.Revision = rev + dirty
		}
	}
	return e
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTable prints every metric by name with its unit, per workload.
func printTable(w io.Writer, rec *record) {
	for _, wr := range rec.Workloads {
		fmt.Fprintf(w, "%s: latency samples per round %v, %d programs attempted, %d failed\n", wr.Name, wr.Samples, wr.Attempted, wr.Failed)
		for _, m := range endToEnd {
			s := wr.Metrics[m.Name]
			fmt.Fprintf(w, "  %-18s %12.4f %-10s q1 %.4f q3 %.4f rounds %s\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, fmtRounds(s.Rounds))
		}
		keys := make([]string, 0, len(wr.Input))
		for k := range wr.Input {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-30s %10.4f\n", k, wr.Input[k])
		}
		if wr.Layers != nil {
			for _, m := range perLayer {
				fmt.Fprintf(w, "  %-30s %12.4f %s\n", m.Name, wr.Layers[m.Name], m.Unit)
			}
			for _, m := range extraLayer {
				fmt.Fprintf(w, "  %-30s %12.4f %s (record only)\n", m.Name, wr.Layers[m.Name], m.Unit)
			}
			fmt.Fprintf(w, "  join: %+v\n", *wr.Join)
		}
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAIL %s\n", f)
		}
	}
}

func fmtRounds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// printResult prints the one-line result: the end-to-end medians, or in a
// traced run the per-layer metrics. With several workloads the metric
// names carry a "<workload>/" prefix.
func printResult(w io.Writer, rec *record) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, wr := range rec.Workloads {
		prefix := ""
		if len(rec.Workloads) > 1 {
			prefix = wr.Name + "/"
		}
		if wr.Layers != nil {
			for _, m := range perLayer {
				metrics[prefix+m.Name] = value{wr.Layers[m.Name], m.Unit}
			}
			continue
		}
		for _, m := range endToEnd {
			metrics[prefix+m.Name] = value{wr.Metrics[m.Name].Median, m.Unit}
		}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	fmt.Fprintln(w, string(b))
}
