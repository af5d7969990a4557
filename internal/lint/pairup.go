package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PairupAnalyzer is the paper's resource-leak anomaly: an acquire whose
// release some path never reaches. The configured pairs are pooled
// buffers (Get/Put) and span lifecycles (Start|StartChild/End). The two
// leaks this repo shipped need no pair any more, because neither can be
// written: memo.Flight ends every flight in a defer, and the gateway has
// no slot to hand back (a backend's routing flag is only read by sends).
//
// The pass is flow-sensitive and intraprocedural: it walks each function
// body tracking live resources through branches, reports any return (or
// fall-through) a live resource can reach unreleased, and stops tracking
// a resource that escapes — returned, stored, or passed to another
// function, where ownership transfers. Releases inside deferred or
// spawned closures count: `defer sp.End()` and span-ending goroutines are
// the idiomatic shapes here.
var PairupAnalyzer = &Analyzer{
	Name: "pairup",
	Doc:  "acquire/release pairing for pools and spans (resource-leak anomaly)",
	Run:  runPairup,
}

// pairShape is how a pair's release refers back to its acquire.
type pairShape int

const (
	// shapeHandle: the resource is the acquire call's result; release is
	// a method ON the handle (Tracer.Start -> span.End).
	shapeHandle pairShape = iota
	// shapeHandleArg: the resource is the acquire call's result; release
	// is a method on the ACQUIRING receiver taking the handle as an
	// argument (Pool.Get -> pool.Put(buf)).
	shapeHandleArg
)

// pairSpec is one configured acquire/release pair. Matching is by
// receiver type name plus optional package-path suffix: the golden
// fixtures declare local stand-in types (Pool, Span, ...) with the same
// shapes, so the fixture suite stays frozen while the real types evolve.
type pairSpec struct {
	pkgSuffix string // "" = any package; otherwise package path suffix
	typeName  string
	acquire   string
	releases  []string
	shape     pairShape
	what      string
	hint      string
}

var pairSpecs = []*pairSpec{
	{
		pkgSuffix: "sync", typeName: "Pool", acquire: "Get",
		releases: []string{"Put"},
		shape:    shapeHandleArg,
		what:     "pooled object",
		hint:     "Put the object back on every path (suppress deliberate drops with //lint:ignore)",
	},
	{
		typeName: "Pool", acquire: "Get", // fixture stand-in for sync.Pool
		releases: []string{"Put"},
		shape:    shapeHandleArg,
		what:     "pooled object",
		hint:     "Put the object back on every path (suppress deliberate drops with //lint:ignore)",
	},
	{
		typeName: "Tracer", acquire: "Start",
		releases: []string{"End"},
		shape:    shapeHandle,
		what:     "span",
		hint:     "End the span on every path (defer span.End() right after Start)",
	},
	{
		typeName: "Span", acquire: "StartChild",
		releases: []string{"End"},
		shape:    shapeHandle,
		what:     "span",
		hint:     "End the span on every path (defer span.End() right after StartChild)",
	},
}

// matchSpec resolves call as an acquire of one of the configured pairs.
func matchSpec(info *types.Info, call *ast.CallExpr) (*pairSpec, ast.Expr) {
	recv, pkg, tname, method, ok := methodCall(info, call)
	if !ok {
		return nil, nil
	}
	for _, s := range pairSpecs {
		if s.typeName != tname || s.acquire != method {
			continue
		}
		if s.pkgSuffix != "" && pkg != s.pkgSuffix && !hasPathSuffix(pkg, s.pkgSuffix) {
			continue
		}
		// Disambiguate same-name specs (sync.Pool vs fixture Pool): prefer
		// the exact-package one when both match; order in pairSpecs puts the
		// pkg-restricted spec first, so first match wins correctly.
		return s, recv
	}
	return nil, nil
}

func hasPathSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	n := len(path) - len(suffix)
	return n > 0 && path[n-1] == '/' && path[n:] == suffix
}

// resource is one tracked acquisition within a function.
type resource struct {
	spec    *pairSpec
	recvKey string // printed receiver expression (shape handleArg)
	handle  string // result variable name
	pos     token.Pos
}

// resState is a resource's status on one path.
type resState struct {
	released bool
	escaped  bool
}

// pairState maps live resources to their per-path status.
type pairState map[*resource]resState

func (s pairState) clone() pairState {
	out := make(pairState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// merge folds another path's state in: released only if released on every
// contributing path (a leak on any path is a leak), escaped if escaped on
// any (ownership moved somewhere this pass cannot see).
func (s pairState) merge(other pairState) {
	for r, st := range other {
		if cur, ok := s[r]; ok {
			cur.released = cur.released && st.released
			cur.escaped = cur.escaped || st.escaped
			s[r] = cur
		} else {
			s[r] = st
		}
	}
}

type pairupWalker struct {
	pass *Pass
	info *types.Info
}

func runPairup(pass *Pass) {
	w := &pairupWalker{pass: pass, info: pass.Pkg.Info}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w.function(fn.Body)
				}
			case *ast.FuncLit:
				w.function(fn.Body)
			}
			return true
		})
	}
}

// function analyzes one function scope: walk the body threading resource
// state, then report anything still live at fall-through.
func (w *pairupWalker) function(body *ast.BlockStmt) {
	st := w.stmts(body.List, pairState{})
	if !lastTerminates(w.info, body.List) {
		w.reportLive(body.Rbrace, st)
	}
}

func (w *pairupWalker) stmts(list []ast.Stmt, st pairState) pairState {
	for i := 0; i < len(list); i++ {
		s := list[i]
		// Peephole for the two-statement conditional acquire:
		//   buf, ok := pool.Get().(*T)
		//   if !ok { failure path }      // or: if ok { owner path }
		// The resource is only owed a release on the side where the bool
		// came back true.
		if as, isAssign := s.(*ast.AssignStmt); isAssign && i+1 < len(list) {
			if r, okName := w.acquireWithOK(as); r != nil && okName != "" {
				if ifs, isIf := list[i+1].(*ast.IfStmt); isIf && ifs.Init == nil {
					if neg, pos := condIsIdent(ifs.Cond, okName); neg || pos {
						w.applyUses(s, st)
						st = w.condAcquireIf(ifs, st, r, neg)
						i++
						continue
					}
				}
			}
		}
		st = w.stmt(s, st)
	}
	return st
}

// acquireWithOK matches an acquire assignment that also binds a success
// bool as its last LHS (buf, ok := ...).
func (w *pairupWalker) acquireWithOK(as *ast.AssignStmt) (*resource, string) {
	r := w.acquireFromAssign(as)
	if r == nil || len(as.Lhs) != 2 {
		return nil, ""
	}
	if id, ok := as.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
		return r, id.Name
	}
	return r, ""
}

// condIsIdent reports whether cond is exactly `!name` (neg) or `name`
// (pos).
func condIsIdent(cond ast.Expr, name string) (neg, pos bool) {
	switch e := cond.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			if id, ok := e.X.(*ast.Ident); ok && id.Name == name {
				return true, false
			}
		}
	case *ast.Ident:
		if e.Name == name {
			return false, true
		}
	}
	return false, false
}

// condAcquireIf walks `if !ok {...}` / `if ok {...}` following a
// conditional acquire: the resource is live only on the success side.
func (w *pairupWalker) condAcquireIf(ifs *ast.IfStmt, st pairState, r *resource, neg bool) pairState {
	if neg {
		// if !ok { failure path — resource not held }
		failOut := w.stmts(ifs.Body.List, st.clone())
		afterState := st.clone()
		afterState[r] = resState{}
		if ifs.Else != nil {
			elseOut := w.stmt(ifs.Else, afterState.clone())
			if !lastTerminates(w.info, ifs.Body.List) {
				elseOut.merge(failOut)
			}
			return elseOut
		}
		if !lastTerminates(w.info, ifs.Body.List) {
			afterState.merge(failOut)
		}
		return afterState
	}
	// if ok { success path — resource held inside only }
	thenState := st.clone()
	thenState[r] = resState{}
	out := st.clone()
	thenOut := w.stmts(ifs.Body.List, thenState)
	if !lastTerminates(w.info, ifs.Body.List) {
		out.merge(thenOut)
	}
	if ifs.Else != nil {
		out.merge(w.stmt(ifs.Else, st.clone()))
	}
	return out
}

func (w *pairupWalker) stmt(s ast.Stmt, st pairState) pairState {
	// Releases and escapes anywhere in the statement (including inside
	// deferred and spawned closures) resolve before control-flow handling:
	// a return statement may itself release (rare) or escape (common).
	// A dropped handle (an acquire as an expression statement) cannot be
	// tracked; nil-safe spans make it legal.
	switch stmt := s.(type) {
	case *ast.AssignStmt:
		if r := w.acquireFromAssign(stmt); r != nil {
			w.applyUses(s, st)
			st = st.clone()
			st[r] = resState{}
			return st
		}
		w.applyUses(s, st)
		return st
	case *ast.IfStmt:
		return w.ifStmt(stmt, st)
	case *ast.ReturnStmt:
		w.applyUses(s, st)
		w.reportLive(stmt.Pos(), st)
		return st
	case *ast.BlockStmt:
		return w.stmts(stmt.List, st.clone())
	case *ast.LabeledStmt:
		return w.stmt(stmt.Stmt, st)
	case *ast.ForStmt:
		if stmt.Init != nil {
			st = w.stmt(stmt.Init, st)
		}
		if stmt.Cond != nil {
			w.applyUsesExpr(stmt.Cond, st)
		}
		body := w.stmts(stmt.Body.List, st.clone())
		out := st.clone()
		out.merge(body)
		return out
	case *ast.RangeStmt:
		w.applyUsesExpr(stmt.X, st)
		body := w.stmts(stmt.Body.List, st.clone())
		out := st.clone()
		out.merge(body)
		return out
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		w.applyUses(s, st) // conservative: tag + all case bodies scanned for releases/escapes
		return st
	case *ast.SelectStmt:
		merged := st.clone()
		for _, c := range stmt.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				sub := st.clone()
				if cc.Comm != nil {
					sub = w.stmt(cc.Comm, sub)
				}
				merged.merge(w.stmts(cc.Body, sub))
			}
		}
		return merged
	default:
		w.applyUses(s, st)
		return st
	}
}

// ifStmt handles conditional-acquire idioms plus ordinary branching.
func (w *pairupWalker) ifStmt(stmt *ast.IfStmt, st pairState) pairState {
	if stmt.Init != nil {
		// `if p, ok := pool.Get().(*T); ok { ... }`: the handle is live in
		// the then-branch only.
		if as, isAssign := stmt.Init.(*ast.AssignStmt); isAssign {
			if r := w.acquireFromAssign(as); r != nil {
				thenState := st.clone()
				thenState[r] = resState{}
				out := st.clone()
				thenOut := w.stmts(stmt.Body.List, thenState)
				if !lastTerminates(w.info, stmt.Body.List) {
					out.merge(thenOut)
				}
				if stmt.Else != nil {
					out.merge(w.stmt(stmt.Else, st.clone()))
				}
				return out
			}
		}
		st = w.stmt(stmt.Init, st)
	}

	w.applyUsesExpr(stmt.Cond, st)
	out := pairState{}
	thenOut := w.stmts(stmt.Body.List, st.clone())
	thenTerm := lastTerminates(w.info, stmt.Body.List)
	if !thenTerm {
		out.merge(thenOut)
	}
	if stmt.Else != nil {
		elseOut := w.stmt(stmt.Else, st.clone())
		elseTerm := false
		if blk, isBlk := stmt.Else.(*ast.BlockStmt); isBlk {
			elseTerm = lastTerminates(w.info, blk.List)
		}
		if !elseTerm {
			out.merge(elseOut)
		}
		if thenTerm && elseTerm {
			return pairState{}
		}
	} else {
		out.merge(st)
	}
	return out
}

// acquireFromAssign matches handle-producing acquires:
// `sp := root.StartChild(..)` and `buf := pool.Get().(*T)`.
func (w *pairupWalker) acquireFromAssign(as *ast.AssignStmt) *resource {
	if len(as.Rhs) != 1 {
		return nil
	}
	rhs := as.Rhs[0]
	if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
		rhs = ta.X
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return nil
	}
	spec, recv := matchSpec(w.info, call)
	if spec == nil || len(as.Lhs) == 0 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return &resource{spec: spec, recvKey: types.ExprString(recv), handle: id.Name, pos: call.Pos()}
}

// applyUses scans a whole statement (closures included) for releases and
// escapes of live resources and updates st in place.
func (w *pairupWalker) applyUses(s ast.Stmt, st pairState) {
	if len(st) == 0 {
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		w.applyNode(n, st)
		return true
	})
}

func (w *pairupWalker) applyUsesExpr(e ast.Expr, st pairState) {
	if e == nil || len(st) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		w.applyNode(n, st)
		return true
	})
}

func (w *pairupWalker) applyNode(n ast.Node, st pairState) {
	switch x := n.(type) {
	case *ast.CallExpr:
		// Release?
		if recv, _, tname, method, ok := methodCall(w.info, x); ok {
			for r, rs := range st {
				if rs.released || rs.escaped || !isRelease(r.spec, method) {
					continue
				}
				switch r.spec.shape {
				case shapeHandle:
					// Release is a method on the handle itself (span.End);
					// the handle's type differs from the acquirer's, so match
					// by variable identity only.
					if types.ExprString(recv) == r.handle || baseIdent(recv) == r.handle {
						rs.released = true
						st[r] = rs
					}
				case shapeHandleArg:
					if tname == r.spec.typeName && types.ExprString(recv) == r.recvKey {
						for _, arg := range x.Args {
							if id, isID := arg.(*ast.Ident); isID && id.Name == r.handle {
								rs.released = true
								st[r] = rs
							}
						}
					}
				}
			}
		}
		// Escape through arguments: a live resource's handle passed to any
		// call transfers ownership — the callee may release it.
		for _, arg := range x.Args {
			w.escapeIfUsed(arg, st)
		}
	case *ast.ReturnStmt:
		for _, res := range x.Results {
			w.escapeIfUsed(res, st)
		}
	case *ast.AssignStmt:
		for _, rhs := range x.Rhs {
			// Re-aliasing a live handle (sp2 := sp) or storing it into a
			// structure loses tracking.
			if call, isCall := rhs.(*ast.CallExpr); isCall {
				if spec, _ := matchSpec(w.info, call); spec != nil {
					continue // the acquire itself, handled by the walker
				}
			}
			w.escapeIfUsed(rhs, st)
		}
	case *ast.SendStmt:
		w.escapeIfUsed(x.Value, st)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			w.escapeIfUsed(el, st)
		}
	}
}

// isRelease reports whether method is one of the spec's release names.
func isRelease(spec *pairSpec, method string) bool {
	for _, r := range spec.releases {
		if r == method {
			return true
		}
	}
	return false
}

// escapeIfUsed marks any live resource whose handle appears in e as
// escaped. A resource is owned through its handle variable: the acquiring
// receiver is just the registry, and reading `p.limit` must not end
// tracking of `buf`.
func (w *pairupWalker) escapeIfUsed(e ast.Expr, st pairState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		for r, rs := range st {
			if !rs.escaped && id.Name == r.handle {
				rs.escaped = true
				st[r] = rs
			}
		}
		return true
	})
}

// reportLive reports every resource still unreleased and unescaped at an
// exit point.
func (w *pairupWalker) reportLive(pos token.Pos, st pairState) {
	type item struct {
		r *resource
	}
	var items []item
	for r, rs := range st {
		if !rs.released && !rs.escaped {
			items = append(items, item{r})
		}
	}
	// Deterministic order for stable output.
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			if items[j].r.pos < items[i].r.pos {
				items[i], items[j] = items[j], items[i]
			}
		}
	}
	for _, it := range items {
		w.pass.Reportf(pos, it.r.spec.hint,
			"%s acquired at line %d is not released on this path",
			it.r.spec.what, w.pass.Fset.Position(it.r.pos).Line)
	}
}
