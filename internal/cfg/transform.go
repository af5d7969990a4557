package cfg

import (
	"fmt"

	"repro/internal/lang"
)

// Unroll applies the paper's Lemma 1 anomaly-preserving transform: every
// loop is unrolled twice, recursively from innermost to outermost nest
// levels, producing a loop-free program whose sync graph contains exactly
// the deadlock cycles of the original program's linearized executions.
//
// Each unrolled copy is guarded so that paths taking zero, one or two
// iterations all exist, and the second copy is nested inside the first
// (iteration two cannot happen without iteration one), matching real loop
// execution orders. A bounded "loop 1 times" unrolls to a single mandatory
// copy; "loop n times" with n >= 2 unrolls to copy; guarded copy, since
// what Lemma 1 needs is (a) a path around the loop when zero iterations are
// possible, (b) paths within one iteration, and (c) a path crossing from
// one iteration into the next.
//
// The input is not mutated. Labels of duplicated rendezvous statements get
// "#1" / "#2" iteration suffixes so nodes stay distinguishable.
func Unroll(p *lang.Program) *lang.Program {
	q := p.Clone()
	for _, t := range q.Tasks {
		t.Body = unrollStmts(t.Body)
	}
	return q
}

func unrollStmts(ss []lang.Stmt) []lang.Stmt {
	var out []lang.Stmt
	for _, s := range ss {
		switch v := s.(type) {
		case *lang.If:
			v.Then = unrollStmts(v.Then)
			v.Else = unrollStmts(v.Else)
			out = append(out, v)
		case *lang.Loop:
			body := unrollStmts(v.Body) // innermost first
			first := relabel(lang.CloneStmts(body), "#1")
			second := relabel(lang.CloneStmts(body), "#2")
			switch {
			case v.Count == 1:
				out = append(out, first...)
			case v.Count >= 2 || v.AtLeastOnce:
				// At least one trip: first copy mandatory, second guarded.
				out = append(out, first...)
				out = append(out, &lang.If{Cond: condName(v, "again"), Then: second, Pos: v.Pos})
			default:
				// Zero or more trips: both copies guarded, nested.
				inner := &lang.If{Cond: condName(v, "again"), Then: second, Pos: v.Pos}
				out = append(out, &lang.If{
					Cond: condName(v, "enter"),
					Then: append(first, inner),
					Pos:  v.Pos,
				})
			}
		default:
			out = append(out, s)
		}
	}
	return out
}

func condName(l *lang.Loop, suffix string) string {
	if l.Cond != "" {
		return l.Cond + "_" + suffix
	}
	return "loop_" + suffix
}

func relabel(ss []lang.Stmt, suffix string) []lang.Stmt {
	var walk func(ss []lang.Stmt)
	walk = func(ss []lang.Stmt) {
		for _, s := range ss {
			switch v := s.(type) {
			case *lang.Send, *lang.Accept:
				if s.Label() != "" {
					s.SetLabel(s.Label() + suffix)
				}
				_ = v
			case *lang.If:
				walk(v.Then)
				walk(v.Else)
			case *lang.Loop:
				walk(v.Body)
			}
		}
	}
	walk(ss)
	return ss
}

// ResourceError reports that a transform or analysis would exceed a
// configured resource limit. It is returned before the offending allocation
// happens, so callers can reject oversized inputs without paying for them.
// Actual may saturate at a large sentinel when the true size overflows.
type ResourceError struct {
	Resource string // what was bounded ("tasks", "unrolled rendezvous nodes", ...)
	Limit    int
	Actual   int
}

func (e *ResourceError) Error() string {
	return fmt.Sprintf("resource limit exceeded: %s %d > limit %d", e.Resource, e.Actual, e.Limit)
}

// predictCap saturates size predictions: any value past it is reported as
// predictCap, keeping the arithmetic overflow-free for arbitrarily deep
// nests (a 64-deep nest would otherwise overflow int64).
const predictCap = int64(1) << 40

// PredictUnrolledRendezvous computes, without allocating anything, exactly
// how many rendezvous statements Unroll would produce for p: each loop
// doubles its body (or keeps one copy for "loop 1 times"), recursively.
// Saturates at a large cap instead of overflowing on pathological nests.
func PredictUnrolledRendezvous(p *lang.Program) int64 {
	var count func(ss []lang.Stmt) int64
	count = func(ss []lang.Stmt) int64 {
		var n int64
		for _, s := range ss {
			switch v := s.(type) {
			case *lang.Send, *lang.Accept:
				n++
			case *lang.If:
				n += count(v.Then) + count(v.Else)
			case *lang.Loop:
				body := count(v.Body)
				if v.Count == 1 {
					n += body
				} else {
					n += 2 * body
				}
			}
			if n >= predictCap {
				return predictCap
			}
		}
		return n
	}
	var total int64
	for _, t := range p.Tasks {
		total += count(t.Body)
		if total >= predictCap {
			return predictCap
		}
	}
	return total
}

// PredictExpandedRendezvous computes, without allocating anything, how
// many rendezvous statements ExpandBounded would produce: bounded loops
// multiply their body by the iteration count (nests multiply together),
// while-loops keep one copy. Saturates at a large cap instead of
// overflowing.
func PredictExpandedRendezvous(p *lang.Program) int64 {
	var count func(ss []lang.Stmt) int64
	count = func(ss []lang.Stmt) int64 {
		var n int64
		for _, s := range ss {
			switch v := s.(type) {
			case *lang.Send, *lang.Accept:
				n++
			case *lang.If:
				n += count(v.Then) + count(v.Else)
			case *lang.Loop:
				body := count(v.Body)
				mult := int64(1)
				if v.Count > 0 {
					mult = int64(v.Count)
				}
				if body > 0 && mult > predictCap/body {
					return predictCap
				}
				n += mult * body
			}
			if n >= predictCap {
				return predictCap
			}
		}
		return n
	}
	var total int64
	for _, t := range p.Tasks {
		total += count(t.Body)
		if total >= predictCap {
			return predictCap
		}
	}
	return total
}

// UnrollBounded is Unroll guarded by a rendezvous-node budget: when the
// twice-unrolled program would contain more than maxRendezvous rendezvous
// statements, it returns a *ResourceError without performing the unroll
// (the 2^depth blowup of a nested-loop bomb is predicted, not suffered).
// maxRendezvous <= 0 means unlimited, i.e. plain Unroll.
func UnrollBounded(p *lang.Program, maxRendezvous int) (*lang.Program, error) {
	if maxRendezvous > 0 {
		if n := PredictUnrolledRendezvous(p); n > int64(maxRendezvous) {
			actual := int(n)
			if n >= predictCap {
				actual = int(predictCap)
			}
			return nil, &ResourceError{
				Resource: "unrolled rendezvous nodes",
				Limit:    maxRendezvous,
				Actual:   actual,
			}
		}
	}
	return Unroll(p), nil
}

// DefaultExpansionLimit is ExpandBounded's per-loop copy limit when none
// is given.
const DefaultExpansionLimit = 64

// ExpandBounded fully expands every "loop n times" into n sequential copies
// of its body (innermost first), leaving while-loops untouched. The exact
// wave explorer uses this so that bounded iteration counts are honored
// precisely. Expansion is refused above limit total copies per loop to
// bound blowup; limit <= 0 means DefaultExpansionLimit.
func ExpandBounded(p *lang.Program, limit int) (*lang.Program, error) {
	if limit <= 0 {
		limit = DefaultExpansionLimit
	}
	q := p.Clone()
	for _, t := range q.Tasks {
		body, err := expandStmts(t.Body, limit)
		if err != nil {
			return nil, fmt.Errorf("cfg: task %s: %w", t.Name, err)
		}
		t.Body = body
	}
	return q, nil
}

func expandStmts(ss []lang.Stmt, limit int) ([]lang.Stmt, error) {
	var out []lang.Stmt
	for _, s := range ss {
		switch v := s.(type) {
		case *lang.If:
			var err error
			if v.Then, err = expandStmts(v.Then, limit); err != nil {
				return nil, err
			}
			if v.Else, err = expandStmts(v.Else, limit); err != nil {
				return nil, err
			}
			out = append(out, v)
		case *lang.Loop:
			body, err := expandStmts(v.Body, limit)
			if err != nil {
				return nil, err
			}
			if v.Count == 0 {
				v.Body = body
				out = append(out, v)
				continue
			}
			if v.Count > limit {
				return nil, fmt.Errorf("loop count %d exceeds expansion limit %d", v.Count, limit)
			}
			for i := 1; i <= v.Count; i++ {
				out = append(out, relabel(lang.CloneStmts(body), fmt.Sprintf("#i%d", i))...)
			}
		default:
			out = append(out, s)
		}
	}
	return out, nil
}

// HasLoops reports whether any task of the program contains a loop
// statement.
func HasLoops(p *lang.Program) bool {
	found := false
	var walk func(ss []lang.Stmt)
	walk = func(ss []lang.Stmt) {
		for _, s := range ss {
			switch v := s.(type) {
			case *lang.Loop:
				found = true
			case *lang.If:
				walk(v.Then)
				walk(v.Else)
				_ = v
			}
		}
	}
	for _, t := range p.Tasks {
		walk(t.Body)
	}
	return found
}

// MaxLoopDepth returns the deepest loop nesting level in the program.
func MaxLoopDepth(p *lang.Program) int {
	var depth func(ss []lang.Stmt) int
	depth = func(ss []lang.Stmt) int {
		d := 0
		for _, s := range ss {
			switch v := s.(type) {
			case *lang.Loop:
				if n := 1 + depth(v.Body); n > d {
					d = n
				}
			case *lang.If:
				if n := depth(v.Then); n > d {
					d = n
				}
				if n := depth(v.Else); n > d {
					d = n
				}
			}
		}
		return d
	}
	max := 0
	for _, t := range p.Tasks {
		if n := depth(t.Body); n > max {
			max = n
		}
	}
	return max
}
