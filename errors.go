package siwa

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cfg"
)

// ResourceError reports that an analysis was rejected because it would
// exceed a configured Options.Limits bound. It is returned before the
// oversized allocation happens: an adversarial nested-loop program is
// refused by arithmetic, not by the OOM killer.
type ResourceError = cfg.ResourceError

// InternalError wraps a panic recovered inside one pipeline stage. A bug in
// a detector or transform surfaces as a typed error naming the stage, with
// the stack captured at the panic site, instead of crashing the process —
// one poisoned program can never take down a server full of healthy ones.
type InternalError struct {
	Stage string // pipeline stage that panicked ("detect:refined", "unroll", ...)
	Value any    // the recovered panic value
	Stack string // stack trace captured at recovery
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("internal error in stage %s: %v", e.Stage, e.Value)
}

// Limits bounds the resources one analysis may consume. Each field is a
// cap; zero (or negative) disables that cap, so the zero value preserves
// the library's historical unbounded behaviour. Servers should set
// DefaultLimits (or their own): the Lemma 1 unroll is exponential in loop
// nesting depth, and without a cap a ~20-deep nest allocates about 2^20
// copies of its body before any detector runs.
type Limits struct {
	// MaxTasks caps the number of tasks in the (inlined) program.
	MaxTasks int
	// MaxNodes caps the rendezvous statements in the parsed (inlined,
	// pre-unroll) program.
	MaxNodes int
	// MaxUnrolledNodes caps the rendezvous statements the twice-unroll
	// transform may produce, enforced predictively by cfg.UnrollBounded.
	MaxUnrolledNodes int
	// MaxSyncEdges caps the sync edges of the (unrolled) program's sync
	// graph — per signal type, sends times accepts — counted before the
	// graph is built. The CLG and detector stages grow with them.
	MaxSyncEdges int
}

// DefaultLimits returns the caps the analysis service applies by default:
// generous for any human-written program, fatal for unroll bombs.
func DefaultLimits() Limits {
	return Limits{
		MaxTasks:         512,
		MaxNodes:         1 << 16,
		MaxUnrolledNodes: 1 << 18,
		MaxSyncEdges:     1 << 17,
	}
}

// String renders the limits in ParseLimits format.
func (l Limits) String() string {
	return fmt.Sprintf("tasks=%d,nodes=%d,unrolled=%d,syncedges=%d", l.MaxTasks, l.MaxNodes, l.MaxUnrolledNodes, l.MaxSyncEdges)
}

// check returns a *ResourceError when actual exceeds an enabled cap.
func checkLimit(resource string, limit, actual int) error {
	if limit > 0 && actual > limit {
		return &ResourceError{Resource: resource, Limit: limit, Actual: actual}
	}
	return nil
}

// ParseLimits parses the CLI/server spelling of Limits: a comma-separated
// list of tasks=N, nodes=N, unrolled=N, syncedges=N (any subset; omitted
// fields are taken from base). The words "off" and "none" disable every cap;
// "default" is DefaultLimits.
func ParseLimits(spec string, base Limits) (Limits, error) {
	switch strings.TrimSpace(spec) {
	case "":
		return base, nil
	case "off", "none":
		return Limits{}, nil
	case "default":
		return DefaultLimits(), nil
	}
	out := base
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Limits{}, fmt.Errorf("limits: %q is not key=value (tasks, nodes, unrolled, syncedges)", part)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return Limits{}, fmt.Errorf("limits: bad value in %q: %v", part, err)
		}
		switch k {
		case "tasks":
			out.MaxTasks = n
		case "nodes":
			out.MaxNodes = n
		case "unrolled":
			out.MaxUnrolledNodes = n
		case "syncedges":
			out.MaxSyncEdges = n
		default:
			return Limits{}, fmt.Errorf("limits: unknown key %q (tasks, nodes, unrolled, syncedges)", k)
		}
	}
	return out, nil
}
