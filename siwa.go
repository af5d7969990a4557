// Package siwa (Static Infinite Wait Anomaly detection) is the public API
// of this reproduction of Masticola & Ryder, "Static Infinite Wait Anomaly
// Detection in Polynomial Time" (ICPP 1990).
//
// The package analyzes MiniAda task programs — an Ada-like rendezvous
// model with sends (entry calls), accepts, conditionals and reducible
// loops, but no selects — for the paper's two infinite-wait anomaly
// classes:
//
//   - Deadlocks, via the conservative polynomial-time detector spectrum
//     (naive CLG cycle detection through the refined head/tail hypothesis
//     algorithms). "Deadlock-free" verdicts are certificates; "may
//     deadlock" verdicts may be false alarms.
//   - Stalls, via the Lemma 3/4 signal-count balance analysis.
//
// An exact (exponential) execution-wave explorer is available as ground
// truth for small programs.
//
// Quick start:
//
//	prog, err := siwa.Parse(src)
//	rep, err := siwa.Analyze(prog, siwa.Options{})
//	if !rep.Deadlock.MayDeadlock { ... certified deadlock-free ... }
package siwa

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/sg"
	"repro/internal/stall"
	"repro/internal/waves"
)

// Re-exported building blocks, so downstream users need only this package.
type (
	// Program is a parsed MiniAda program.
	Program = lang.Program
	// Verdict is one deadlock-detector outcome.
	Verdict = core.Verdict
	// Algorithm selects a detector from the precision/cost spectrum.
	Algorithm = core.Algorithm
	// ExactResult is the exact wave exploration outcome.
	ExactResult = waves.Result
	// StallReport is the Lemma 4 balance analysis outcome.
	StallReport = stall.Report
	// Tracer collects a span tree when passed via Options.Tracer.
	Tracer = obs.Tracer
	// Span is one named, timed pipeline stage with work counters.
	Span = obs.Span
	// JSONSpan is the wire projection of a Span (report schema v2).
	JSONSpan = obs.SpanJSON
)

// NewTracer returns a tracer for Options.Tracer; after Analyze, read the
// span tree from Report.Trace (or Tracer.Root).
func NewTracer() *Tracer { return obs.NewTracer() }

// Detector spectrum, in increasing precision and cost.
const (
	AlgoNaive                = core.AlgoNaive
	AlgoRefined              = core.AlgoRefined
	AlgoRefinedPairs         = core.AlgoRefinedPairs
	AlgoRefinedHeadTail      = core.AlgoRefinedHeadTail
	AlgoRefinedHeadTailPairs = core.AlgoRefinedHeadTailPairs
	// AlgoRefinedKPairs runs k = 3 head-tail pairs with the exhaustive
	// small-cycle phase; AlgoEnumerate runs the budgeted cycle-enumeration
	// detector (exact constraint 1c).
	AlgoRefinedKPairs = core.AlgoRefinedKPairs
	AlgoEnumerate     = core.AlgoEnumerate
)

// Parse parses MiniAda source. See the language overview in the README:
// tasks containing sends ("target.msg;"), accepts ("accept msg;"),
// conditionals and loops. A parser panic (a bug, or the "parse" fault
// point) is contained and returned as a typed *InternalError.
func Parse(src string) (prog *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &InternalError{Stage: "parse", Value: r, Stack: string(debug.Stack())}
		}
	}()
	if ferr := fault.Inject("parse"); ferr != nil {
		return nil, ferr
	}
	return lang.Parse(src)
}

// MustParse is Parse that panics on error, for examples and tests.
func MustParse(src string) *Program { return lang.MustParse(src) }

// Options configures Analyze.
type Options struct {
	// Algorithm selects the deadlock detector; the zero value is
	// AlgoNaive, the first rung of the spectrum. Most callers want
	// AlgoRefined or AlgoRefinedPairs.
	Algorithm Algorithm
	// AllAlgorithms additionally runs the whole spectrum and records the
	// verdicts in Report.Spectrum.
	AllAlgorithms bool
	// Constraint4 additionally tries to certify deadlock freedom by the
	// global condition (outside task always breaks every cycle).
	Constraint4 bool
	// Enumerate additionally runs the cycle-enumeration detector, which
	// enforces constraint 1c (one entry per task) exactly; worst-case
	// exponential but budgeted, and the most precise sound detector in
	// the suite. EnumerateLimit caps the cycle count (0 = 4096).
	Enumerate      bool
	EnumerateLimit int
	// FIFO applies the FIFO sync-edge refinement before detection: when a
	// signal's sends and accepts are each totally ordered by the strong
	// Precede relation, off-diagonal pairings are provably infeasible and
	// their sync edges are deleted (order.InfeasibleSyncPairs). Sound for
	// loop-free programs and automatically skipped for programs with
	// loops (the argument does not transfer through the Lemma 1 unroll);
	// off by default to keep the paper's baseline graphs.
	FIFO bool
	// Exact additionally runs the exact wave explorer (exponential; for
	// small programs and ground-truth comparisons).
	Exact bool
	// ExactOptions tunes the explorer when Exact is set.
	ExactOptions waves.Options
	// Trace collects a span tree — one timed span per pipeline stage,
	// carrying each stage's work counters (hypotheses tested, SCC runs,
	// pruned nodes, CLG sizes, wave states...) — into Report.Trace.
	// Tracing off costs nothing: every instrumentation point is a nil
	// check.
	Trace bool
	// Tracer, when non-nil, supplies a caller-owned tracer instead of the
	// one Trace would create, so callers can aggregate spans across many
	// Analyze runs. Setting it implies Trace.
	Tracer *Tracer
	// Limits bounds the resources one analysis may consume (task count,
	// parsed rendezvous nodes, unrolled rendezvous nodes). The zero value
	// keeps the historical unbounded behaviour; servers should apply
	// DefaultLimits. A violation surfaces as a typed *ResourceError before
	// the oversized allocation happens, so an adversarial nested-loop
	// program is refused by arithmetic instead of exhausting memory.
	Limits Limits
	// Parallelism caps the worker count of the detector's hypothesis
	// sweeps. 0 (the default) uses GOMAXPROCS; 1 forces serial execution.
	// Verdicts are byte-identical at every setting — parallelism only
	// changes wall-clock time — so this is purely a resource knob.
	Parallelism int
	// StageCache, when non-nil, memoizes expensive pipeline artifacts
	// across AnalyzeSource/AnalyzeSourceContext calls, keyed on the
	// SHA-256 digest of the program source: the parse+inline+unroll
	// artifacts, the sync graph with its CLG and ordering tables, the
	// per-algorithm verdicts, and the stall balance. A warm source asked
	// for a new algorithm pays only that algorithm's detector sweep.
	// Ignored by Analyze/AnalyzeContext, which take an already-parsed
	// program and so have no content address to key on. See NewStageCache.
	StageCache *StageCache
	// Degrade turns deadline and budget exhaustion in the expensive
	// optional stages (Enumerate, Exact) into graceful degradation: the
	// report keeps the already-computed polynomial verdict and is marked
	// Degraded instead of the whole analysis failing. This is sound by the
	// paper's conservatism guarantee — the polynomial detectors never
	// certify a deadlocking program free — so "no anomaly found under
	// budget, polynomial certificate holds" is still a valid conservative
	// answer; only the extra precision of the exhaustive stage is lost.
	Degrade bool
}

// Report is the complete analysis outcome for one program.
type Report struct {
	// Program is the analyzed (original) program; Unrolled is its
	// loop-free twice-unrolled form actually fed to the detectors, equal
	// to Program when no loops exist.
	Program  *Program
	Unrolled *Program

	// Graph is the sync graph of the unrolled program.
	Graph *sg.Graph
	// Analyzer exposes the CLG and ordering facts for advanced callers.
	Analyzer *core.Analyzer
	// FIFORemoved counts sync edges deleted by the FIFO refinement.
	FIFORemoved int

	// Deadlock is the verdict of the selected algorithm. Spectrum holds
	// every detector's verdict when Options.AllAlgorithms was set.
	Deadlock Verdict
	Spectrum []Verdict

	// Constraint4Free is true when the global-condition certifier proved
	// deadlock freedom; Constraint4Conclusive reports whether it could
	// enumerate all cycles.
	Constraint4Free       bool
	Constraint4Conclusive bool

	// Enumerated holds the cycle-enumeration verdict when requested.
	Enumerated *core.EnumerationVerdict

	// Stall is the Lemma 4 balance analysis of the original program.
	Stall *StallReport

	// Exact is the ground-truth exploration (nil unless requested).
	// Node ids inside it refer to ExactGraph — the sync graph of the
	// bounded-loop-expanded program, which differs from Graph when the
	// program has loops.
	Exact      *ExactResult
	ExactGraph *sg.Graph

	// Trace is the root span of the pipeline trace (nil unless
	// Options.Trace or Options.Tracer was set): one child span per stage
	// that ran, with durations and work counters. Render it with
	// TraceString or project it with JSONReport.
	Trace *Span

	// Degraded reports that an expensive optional stage (enumeration or
	// the exact explorer) hit its deadline or budget under Options.Degrade
	// and the report fell back to the conservative polynomial verdict;
	// DegradedReasons names each stage and why. The polynomial verdicts in
	// this report remain sound certificates.
	Degraded        bool
	DegradedReasons []string
}

// Analyze runs the paper's pipeline on p: unroll loops twice (Lemma 1),
// build the sync graph and CLG, run the selected deadlock detector and the
// stall balance analysis, and optionally the exact explorer.
func Analyze(p *Program, opt Options) (*Report, error) {
	return AnalyzeContext(context.Background(), p, opt)
}

// AnalyzeContext is Analyze with cooperative cancellation: the context is
// checked between pipeline stages (unroll, sync graph, each detector,
// stall, exact) and polled inside the exact wave exploration, so a
// deadline or cancel interrupts even an exponential Exact or Enumerate
// request promptly. The returned error wraps ctx.Err(), so callers can
// test it with errors.Is(err, context.DeadlineExceeded).
//
// Failure containment: every stage runs under panic recovery, so a bug in
// a transform or detector returns a typed *InternalError naming the stage
// (with the stack captured at the panic site) instead of crashing the
// caller. Options.Limits violations return a typed *ResourceError, and
// Options.Degrade converts deadline/budget exhaustion in the Enumerate and
// Exact stages into a degraded-but-sound report (see Options.Degrade).
func AnalyzeContext(ctx context.Context, p *Program, opt Options) (*Report, error) {
	opt.StageCache = nil // a parsed program has no content address
	return analyze(ctx, p, "", opt)
}

// clampInt saturates an int64 prediction into int range for error reports.
func clampInt(n int64) int {
	const max = int64(^uint(0) >> 1)
	if n > max {
		return int(max)
	}
	return int(n)
}

// TraceString renders the pipeline span tree (Report.Trace) as indented
// lines of stage name, duration, and work counters. Empty when the report
// was produced without Options.Trace.
func (r *Report) TraceString() string {
	return r.Trace.Tree()
}

// AnomalyTraceString renders one exact-exploration anomaly trace as
// readable rendezvous steps ("r <-> u"), using ExactGraph labels.
func (r *Report) AnomalyTraceString(a waves.Anomaly) string {
	if r.ExactGraph == nil {
		return ""
	}
	name := func(id int) string {
		n := r.ExactGraph.Nodes[id]
		if n.Label != "" {
			return n.Label
		}
		return n.String()
	}
	var parts []string
	for _, step := range a.Trace {
		parts = append(parts, name(step.U)+" <-> "+name(step.V))
	}
	if len(parts) == 0 {
		return "(stuck at the initial wave)"
	}
	return strings.Join(parts, ", ")
}

// DeadlockFree reports whether any requested sound certifier proved the
// program deadlock-free: the selected detector, the constraint-4
// certifier, or the enumeration detector.
func (r *Report) DeadlockFree() bool {
	if !r.Deadlock.MayDeadlock {
		return true
	}
	if r.Constraint4Free && r.Constraint4Conclusive {
		return true
	}
	return r.Enumerated != nil && r.Enumerated.Conclusive && !r.Enumerated.MayDeadlock
}

// WitnessLabels renders one witness node set as statement labels.
func (r *Report) WitnessLabels(w []int) []string {
	out := make([]string, 0, len(w))
	for _, id := range w {
		n := r.Graph.Nodes[id]
		if n.Label != "" {
			out = append(out, n.Label)
		} else {
			out = append(out, n.String())
		}
	}
	sort.Strings(out)
	return out
}

// Summary renders a human-readable report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tasks: %d, rendezvous nodes: %d, sync edges: %d, control edges: %d\n",
		len(r.Graph.Tasks), r.Graph.NumRendezvous(), r.Graph.NumSyncEdges(), r.Graph.NumControlEdges())
	if r.Unrolled != r.Program {
		what := "loops unrolled twice (Lemma 1)"
		if len(r.Program.Procs) > 0 {
			what = "procedures inlined; loops unrolled twice (Lemma 1)"
			if !cfg.HasLoops(r.Program) {
				what = "procedures inlined"
			}
		}
		fmt.Fprintf(&b, "%s: %d -> %d rendezvous statements\n",
			what, r.Program.CountRendezvous(), r.Unrolled.CountRendezvous())
	}
	if r.FIFORemoved > 0 {
		fmt.Fprintf(&b, "FIFO refinement: %d infeasible sync edges removed\n", r.FIFORemoved)
	}
	verdict := "certified DEADLOCK-FREE"
	if r.Deadlock.MayDeadlock {
		verdict = fmt.Sprintf("MAY DEADLOCK (%d witness component(s))", len(r.Deadlock.Witnesses))
	}
	fmt.Fprintf(&b, "deadlock [%s]: %s\n", r.Deadlock.Algorithm, verdict)
	for _, w := range r.Deadlock.Witnesses {
		fmt.Fprintf(&b, "  witness: %s\n", strings.Join(r.WitnessLabels(w), " "))
	}
	if r.Constraint4Conclusive && r.Constraint4Free {
		b.WriteString("constraint 4: every cycle is broken by an outside task — certified DEADLOCK-FREE\n")
	}
	if r.Enumerated != nil {
		switch {
		case !r.Enumerated.Conclusive:
			b.WriteString("enumeration: budget exceeded — inconclusive\n")
		case r.Enumerated.MayDeadlock:
			fmt.Fprintf(&b, "enumeration: %d of %d cycles remain plausible — MAY DEADLOCK\n",
				r.Enumerated.CyclesPlausible, r.Enumerated.CyclesSeen)
		default:
			fmt.Fprintf(&b, "enumeration: all %d cycles provably spurious — certified DEADLOCK-FREE\n",
				r.Enumerated.CyclesSeen)
		}
	}
	for _, v := range r.Spectrum {
		fmt.Fprintf(&b, "  spectrum %-24s may-deadlock=%-5v hypotheses=%d scc-runs=%d\n",
			v.Algorithm.String()+":", v.MayDeadlock, v.Hypotheses, v.SCCRuns)
	}
	if r.Stall.StallFree() {
		b.WriteString("stall balance (Lemma 3/4): balanced in every linearization — no stall from count imbalance\n")
	} else {
		b.WriteString("stall balance (Lemma 3/4): POSSIBLE STALL —\n")
		for _, v := range r.Stall.Unbalanced() {
			if !v.Constant {
				fmt.Fprintf(&b, "  signal %s: count varies with branches of task %s\n", v.Sig, v.VaryingTask)
			} else {
				fmt.Fprintf(&b, "  signal %s: sends minus accepts = %+d\n", v.Sig, v.Delta)
			}
		}
	}
	if r.Exact != nil {
		fmt.Fprintf(&b, "exact waves: %d states, %d transitions, deadlock=%v stall=%v anomalous-waves=%d truncated=%v\n",
			r.Exact.States, r.Exact.Transitions, r.Exact.Deadlock, r.Exact.Stall,
			r.Exact.AnomalousWaves, r.Exact.Truncated)
	}
	if r.Degraded {
		fmt.Fprintf(&b, "DEGRADED (conservative verdicts above remain sound): %s\n",
			strings.Join(r.DegradedReasons, "; "))
	}
	return b.String()
}
