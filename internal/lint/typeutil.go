package lint

import (
	"go/ast"
	"go/types"
)

// derefNamed unwraps pointers and returns the underlying named type, or
// nil for unnamed types.
func derefNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// namedInfo splits a named type into (package path, type name); ("", "")
// for unnamed types or types without a package (error, ...).
func namedInfo(t types.Type) (pkgPath, name string) {
	n := derefNamed(t)
	if n == nil || n.Obj() == nil {
		return "", ""
	}
	if n.Obj().Pkg() != nil {
		pkgPath = n.Obj().Pkg().Path()
	}
	return pkgPath, n.Obj().Name()
}

// methodCall resolves call as a method call: the receiver expression, the
// receiver's (pkgPath, typeName), and the method name. ok is false for
// plain function calls, conversions, and calls through non-selector
// expressions.
func methodCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, pkgPath, typeName, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", "", "", false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return nil, "", "", "", false
	}
	pkgPath, typeName = namedInfo(selection.Recv())
	if typeName == "" {
		// Interface or unnamed receiver: fall back to the method's own
		// receiver declaration (interface methods resolve here).
		if f, isFunc := selection.Obj().(*types.Func); isFunc {
			sig := f.Type().(*types.Signature)
			if sig.Recv() != nil {
				pkgPath, typeName = namedInfo(sig.Recv().Type())
			}
		}
	}
	return sel.X, pkgPath, typeName, sel.Sel.Name, typeName != ""
}

// funcCall resolves call as a package-level function call, returning the
// function's (pkgPath, name). ok is false for methods, conversions, and
// local closures.
func funcCall(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if f, isFunc := info.Uses[fun].(*types.Func); isFunc {
			if f.Pkg() != nil {
				return f.Pkg().Path(), f.Name(), true
			}
		}
	case *ast.SelectorExpr:
		if _, isMethod := info.Selections[fun]; isMethod {
			return "", "", false
		}
		if f, isFunc := info.Uses[fun.Sel].(*types.Func); isFunc {
			if f.Pkg() != nil {
				return f.Pkg().Path(), f.Name(), true
			}
		}
	}
	return "", "", false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	pkg, name := func() (string, string) {
		if n, ok := t.(*types.Named); ok && n.Obj() != nil && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Path(), n.Obj().Name()
		}
		return "", ""
	}()
	return pkg == "context" && name == "Context"
}

// baseIdent returns the leftmost identifier of a selector chain
// (g.mu -> g; buf -> buf), or "" when the expression is not rooted
// in an identifier.
func baseIdent(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// terminates reports whether a statement never falls through to the next
// statement in its list: return, panic, continue/break/goto, or an
// os.Exit-like call. Approximate on purpose — used only to decide which
// branch states merge at a join point.
func terminates(info *types.Info, s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
			if pkg, name, ok := funcCall(info, call); ok {
				if (pkg == "os" && name == "Exit") || (pkg == "runtime" && name == "Goexit") {
					return true
				}
				if pkg == "log" && (name == "Fatal" || name == "Fatalf" || name == "Fatalln") {
					return true
				}
			}
		}
	case *ast.BlockStmt:
		if n := len(st.List); n > 0 {
			return terminates(info, st.List[n-1])
		}
	case *ast.SelectStmt:
		// A select never falls through when every arm ends in a
		// terminating statement (an empty select blocks forever, which
		// also never falls through).
		for _, c := range st.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || !lastTerminates(info, cc.Body) {
				return false
			}
		}
		return true
	}
	return false
}

// lastTerminates reports whether a statement list ends in a terminating
// statement.
func lastTerminates(info *types.Info, list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	return terminates(info, list[len(list)-1])
}
