// Command siwad analyzes MiniAda programs for infinite wait anomalies
// (stalls and deadlocks) using the detectors of Masticola & Ryder (ICPP
// 1990).
//
// Usage:
//
//	siwad [flags] file.ada...        # analyze files
//	siwad [flags] -                  # analyze stdin
//
// Flags:
//
//	-algo NAME      detector: naive, refined, pairs, head-tail, ht-pairs,
//	                k-pairs, enumerate (default refined)
//	-all            run the whole detector spectrum
//	-c4             also try the constraint-4 (outside breaker) certifier
//	-enum           also run the cycle-enumeration detector (exact 1c)
//	-fifo           apply the FIFO sync-edge refinement first (loop-free)
//	-exact          also run the exact wave explorer (exponential)
//	-trace          print the pipeline span tree: per-stage durations and
//	                work counters (hypotheses, SCC runs, pruned nodes, ...)
//	-anomaly-trace  print rendezvous traces to each anomaly (implies -exact)
//	-json           machine-readable output (includes the span tree under
//	                "trace" when -trace is set)
//	-max-states N   state cap for -exact and -dot waves (default 1<<20)
//	-limits SPEC    per-analysis resource caps as tasks=N,nodes=N,unrolled=N
//	                (any subset), or "default" for the server-side caps;
//	                unbounded when omitted
//	-degrade        when the exact explorer hits a deadline or state budget,
//	                keep the (sound, conservative) polynomial verdicts and
//	                mark the report DEGRADED instead of failing
//	-dot KIND       print a Graphviz graph instead of analyzing:
//	                sync | clg | waves (the Taylor concurrency state graph)
//
// Exit status: 0 when every input is certified deadlock-free, 1 when any
// input may deadlock or stall, 2 on usage or parse errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	siwa "repro"
	"repro/internal/clg"
	"repro/internal/waves"
)

// algoNames is the shared CLI/service registry; the -algo flag's accepted
// spellings and the unknown-algorithm error both derive from it.
var algoNames = siwa.Algorithms()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("siwad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algo := fs.String("algo", "refined", "detector: naive, refined, pairs, head-tail, ht-pairs, k-pairs, enumerate")
	all := fs.Bool("all", false, "run the whole detector spectrum")
	c4 := fs.Bool("c4", false, "also run the constraint-4 certifier")
	enum := fs.Bool("enum", false, "also run the cycle-enumeration detector (exact constraint 1c)")
	fifo := fs.Bool("fifo", false, "apply the FIFO sync-edge refinement (loop-free programs)")
	exact := fs.Bool("exact", false, "also run the exact wave explorer")
	trace := fs.Bool("trace", false, "print the pipeline span tree (per-stage durations and work counters)")
	anomalyTrace := fs.Bool("anomaly-trace", false, "with the exact explorer, print rendezvous traces to each anomaly (implies -exact)")
	maxStates := fs.Int("max-states", waves.DefaultMaxStates, "state cap for -exact")
	limitsSpec := fs.String("limits", "", "resource caps: tasks=N,nodes=N,unrolled=N, or default (unbounded when omitted)")
	parallelism := fs.Int("parallelism", 0, "worker count for detector hypothesis sweeps (0 = GOMAXPROCS, 1 = serial)")
	degrade := fs.Bool("degrade", false, "degrade to the polynomial verdicts when the exact explorer is cut short")
	dot := fs.String("dot", "", "emit a Graphviz graph (sync|clg|waves) instead of analyzing")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of the text report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "siwad: no input files (use - for stdin)")
		fs.Usage()
		return 2
	}
	algorithm, ok := algoNames[*algo]
	if !ok {
		fmt.Fprintf(stderr, "siwad: unknown algorithm %q (valid: %s)\n",
			*algo, strings.Join(siwa.AlgorithmNames(), ", "))
		return 2
	}
	// Unlike the server, the CLI is unbounded unless asked: analyzing your
	// own large program locally should not need a flag to opt out of caps.
	limits, err := siwa.ParseLimits(*limitsSpec, siwa.Limits{})
	if err != nil {
		fmt.Fprintf(stderr, "siwad: %v\n", err)
		return 2
	}

	anomalous := false
	for _, path := range fs.Args() {
		src, err := readInput(path)
		if err != nil {
			fmt.Fprintf(stderr, "siwad: %v\n", err)
			return 2
		}
		prog, err := siwa.Parse(src)
		if err != nil {
			fmt.Fprintf(stderr, "siwad: %s: %v\n", path, err)
			return 2
		}
		rep, err := siwa.Analyze(prog, siwa.Options{
			Algorithm:     algorithm,
			AllAlgorithms: *all,
			Constraint4:   *c4,
			Enumerate:     *enum,
			FIFO:          *fifo,
			Exact:         *exact || *anomalyTrace,
			ExactOptions:  waves.Options{MaxStates: *maxStates, Traces: *anomalyTrace},
			Trace:         *trace,
			Limits:        limits,
			Parallelism:   *parallelism,
			Degrade:       *degrade,
		})
		if err != nil {
			fmt.Fprintf(stderr, "siwad: %s: %v\n", path, err)
			return 2
		}
		if *dot != "" {
			switch *dot {
			case "sync":
				fmt.Fprint(stdout, rep.Graph.DOT())
			case "clg":
				fmt.Fprint(stdout, clg.Build(rep.Graph).DOT())
			case "waves":
				eg, err := waves.ExploreProgramGraph(prog, 0)
				if err != nil {
					fmt.Fprintf(stderr, "siwad: %s: %v\n", path, err)
					return 2
				}
				sgph := waves.BuildStateGraph(eg, *maxStates)
				if sgph.Truncated {
					fmt.Fprintf(stderr, "siwad: %s: state graph truncated at %d states\n", path, *maxStates)
				}
				fmt.Fprint(stdout, sgph.DOT())
			default:
				fmt.Fprintf(stderr, "siwad: unknown -dot kind %q\n", *dot)
				return 2
			}
			continue
		}
		if *jsonOut {
			data, err := rep.JSON()
			if err != nil {
				fmt.Fprintf(stderr, "siwad: %s: %v\n", path, err)
				return 2
			}
			fmt.Fprintf(stdout, "%s\n", data)
			if !rep.DeadlockFree() || !rep.Stall.StallFree() {
				anomalous = true
			}
			continue
		}
		fmt.Fprintf(stdout, "== %s ==\n%s", path, rep.Summary())
		if *anomalyTrace && rep.Exact != nil {
			for i, a := range rep.Exact.Anomalies {
				kind := "stall"
				if len(a.DeadlockSet) > 0 {
					kind = "deadlock"
				}
				fmt.Fprintf(stdout, "  anomaly %d (%s) trace: %s\n", i+1, kind, rep.AnomalyTraceString(a))
			}
		}
		if *trace {
			fmt.Fprintf(stdout, "-- pipeline trace --\n%s", rep.TraceString())
		}
		if !rep.DeadlockFree() || !rep.Stall.StallFree() {
			anomalous = true
		}
	}
	if anomalous {
		return 1
	}
	return 0
}

func readInput(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
