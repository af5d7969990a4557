// Package stall implements the paper's §5 stallability analysis.
//
// Lemma 3: a straight-line program is stall-free if every signal type has
// equally many signaling and accepting nodes — checkable in O(|N|).
//
// Lemma 4 extends the condition to programs with branches: the counts must
// balance in every feasible linearized execution. Under the model's
// semantics (branch outcomes opaque and independent), the per-task count
// contribution of a signal must therefore be *constant* across all of that
// task's linearizations, and the constants must sum to zero — which this
// package decides in polynomial time by a bottom-up pass over each task
// (CheckAllLinearizations), instead of enumerating the exponentially many
// linearizations the lemma quantifies over.
//
// The two source transforms of §5.1 that recover analyzability are also
// provided: MergeBranches hoists rendezvous executed on both sides of a
// conditional out of it (Figure 5 b→c), and HoistCertified factors
// rendezvous out of programmer-certified co-dependent conditionals
// (Figure 5 d).
package stall

import (
	"fmt"
	"sort"

	"repro/internal/lang"
)

// Balance is the send/accept node count of one signal type.
type Balance struct {
	Sig   lang.Signal
	Plus  int // signaling (send) nodes
	Minus int // accepting nodes
}

// Balanced reports Plus == Minus.
func (b Balance) Balanced() bool { return b.Plus == b.Minus }

// IsStraightLine reports whether the program has no conditionals or loops.
func IsStraightLine(p *lang.Program) bool {
	straight := true
	var walk func(ss []lang.Stmt)
	walk = func(ss []lang.Stmt) {
		for _, s := range ss {
			switch v := s.(type) {
			case *lang.If, *lang.Loop:
				straight = false
				_ = v
			}
		}
	}
	for _, t := range p.Tasks {
		walk(t.Body)
	}
	return straight
}

// CountNodes tallies send and accept nodes per signal type over the whole
// program, branches included (counts every node once, as Lemma 3 does for
// straight-line code). O(|N|).
func CountNodes(p *lang.Program) []Balance {
	counts := map[lang.Signal]*Balance{}
	get := func(sig lang.Signal) *Balance {
		b := counts[sig]
		if b == nil {
			b = &Balance{Sig: sig}
			counts[sig] = b
		}
		return b
	}
	for _, t := range p.Tasks {
		var walk func(ss []lang.Stmt)
		walk = func(ss []lang.Stmt) {
			for _, s := range ss {
				switch v := s.(type) {
				case *lang.Send:
					get(lang.Signal{Task: v.Target, Msg: v.Msg}).Plus++
				case *lang.Accept:
					get(lang.Signal{Task: t.Name, Msg: v.Msg}).Minus++
				case *lang.If:
					walk(v.Then)
					walk(v.Else)
				case *lang.Loop:
					walk(v.Body)
				}
			}
		}
		walk(t.Body)
	}
	out := make([]Balance, 0, len(counts))
	for _, b := range counts {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sig.Task != out[j].Sig.Task {
			return out[i].Sig.Task < out[j].Sig.Task
		}
		return out[i].Sig.Msg < out[j].Sig.Msg
	})
	return out
}

// StallFreeStraightLine applies Lemma 3. It errors when the program is not
// straight-line (Lemma 3 does not apply there).
func StallFreeStraightLine(p *lang.Program) (bool, []Balance, error) {
	if !IsStraightLine(p) {
		return false, nil, fmt.Errorf("stall: Lemma 3 requires straight-line code; use CheckAllLinearizations")
	}
	bals := CountNodes(p)
	for _, b := range bals {
		if !b.Balanced() {
			return false, bals, nil
		}
	}
	return true, bals, nil
}

// SignalVerdict reports the Lemma 4 status of one signal type.
type SignalVerdict struct {
	Sig lang.Signal
	// Constant is false when some task's contribution to this signal's
	// send-accept delta varies across that task's linearizations; the
	// offending task is named.
	Constant    bool
	VaryingTask string
	// Delta is the program-wide send-minus-accept count, valid when
	// Constant.
	Delta int
}

// Balanced reports a constant, zero delta.
func (v SignalVerdict) Balanced() bool { return v.Constant && v.Delta == 0 }

// Report is the outcome of CheckAllLinearizations.
type Report struct {
	Signals []SignalVerdict
}

// StallFree reports whether every signal balances in every linearization.
func (r *Report) StallFree() bool {
	for _, v := range r.Signals {
		if !v.Balanced() {
			return false
		}
	}
	return true
}

// Unbalanced returns the signals that fail Lemma 4's condition.
func (r *Report) Unbalanced() []SignalVerdict {
	var out []SignalVerdict
	for _, v := range r.Signals {
		if !v.Balanced() {
			out = append(out, v)
		}
	}
	return out
}

// CheckAllLinearizations decides Lemma 4's quantifier in polynomial time:
// for each signal type and each task it computes whether the task's
// send-minus-accept delta is the same on every linearization (branch arms
// must agree; loop bodies must have bounded-count constant deltas or zero
// delta when the trip count is unknown), then sums the constants.
func CheckAllLinearizations(p *lang.Program) *Report {
	sigs := p.Signals()
	rep := &Report{}
	if len(sigs) > 0 {
		rep.Signals = make([]SignalVerdict, 0, len(sigs))
	}
	for _, sig := range sigs {
		v := SignalVerdict{Sig: sig, Constant: true}
		for _, t := range p.Tasks {
			c, d := deltaStmts(t, t.Body, sig)
			if !c {
				v.Constant = false
				v.VaryingTask = t.Name
				break
			}
			v.Delta += d
		}
		rep.Signals = append(rep.Signals, v)
	}
	return rep
}

// deltaStmts returns (constant, delta) of signal sig over ss in task t.
func deltaStmts(t *lang.Task, ss []lang.Stmt, sig lang.Signal) (bool, int) {
	total := 0
	for _, s := range ss {
		c, d := deltaStmt(t, s, sig)
		if !c {
			return false, 0
		}
		total += d
	}
	return true, total
}

func deltaStmt(t *lang.Task, s lang.Stmt, sig lang.Signal) (bool, int) {
	switch v := s.(type) {
	case *lang.Send:
		if (lang.Signal{Task: v.Target, Msg: v.Msg}) == sig {
			return true, 1
		}
		return true, 0
	case *lang.Accept:
		if (lang.Signal{Task: t.Name, Msg: v.Msg}) == sig {
			return true, -1
		}
		return true, 0
	case *lang.Null:
		return true, 0
	case *lang.If:
		c1, d1 := deltaStmts(t, v.Then, sig)
		c2, d2 := deltaStmts(t, v.Else, sig)
		if !c1 || !c2 || d1 != d2 {
			return false, 0
		}
		return true, d1
	case *lang.Loop:
		c, d := deltaStmts(t, v.Body, sig)
		if !c {
			return false, 0
		}
		if v.Count > 0 {
			return true, d * v.Count
		}
		// Unknown trip count: constant only when one trip contributes
		// nothing.
		if d == 0 {
			return true, 0
		}
		return false, 0
	default:
		return true, 0
	}
}
