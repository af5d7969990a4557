// Package lint is siwad-lint: a repo-specific static-analysis suite that
// turns the source paper's infinite-wait lens on this repository's own
// concurrency code. The paper detects rendezvous programs that can wait
// forever; the Go shapes of the same anomaly class here are blocking
// operations reached while a mutex is held (waitlock), acquired resources
// that some path never releases (pairup), and request contexts that stop
// flowing so cancellation never arrives (ctxflow). These are behaviours
// the type system cannot check; invariants it can check (metric families
// declared once as obs.Family values, error codes as the closed
// service.Code type) are left to the compiler.
//
// Everything is built on the standard library's go/ast + go/types, driven
// by `go list -json` and source typechecking, so the module keeps zero
// external requirements.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: position, owning analyzer, a one-line
// message, and a one-line fix hint. Suppressed findings (an in-scope
// //lint:ignore comment) are retained and counted, never silently
// dropped.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Hint     string

	Suppressed     bool
	SuppressReason string
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	if d.Hint != "" {
		s += " (fix: " + d.Hint + ")"
	}
	return s
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos. hint is the one-line fix suggestion
// ("" allowed but discouraged — every real finding has a next action).
func (p *Pass) Reportf(pos token.Pos, hint, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Hint:     hint,
	})
}

// Analyzer is one named pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers is the full suite, in stable order. waitlock and pairup are
// the paper's infinite-wait and resource-leak anomalies transliterated to
// Go; ctxflow keeps cancellation flowing along the request path.
var Analyzers = []*Analyzer{
	WaitlockAnalyzer,
	PairupAnalyzer,
	CtxflowAnalyzer,
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Ignore is one //lint:ignore <analyzer> <reason> site. A bare "all"
// analyzer name suppresses every analyzer on the target line.
type Ignore struct {
	Pos      token.Position
	Analyzer string
	Reason   string
	Used     bool
}

const ignorePrefix = "//lint:ignore"

// parseIgnores scans a file's comments for //lint:ignore directives. The
// directive suppresses diagnostics on the line it targets: its own line
// for a trailing comment, the next code line for a comment on a line of
// its own. A directive with no reason is itself a diagnostic — the audit
// trail is the point of the mechanism.
func parseIgnores(fset *token.FileSet, f *ast.File, diags *[]Diagnostic) []*Ignore {
	var out []*Ignore
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
			fields := strings.SplitN(rest, " ", 2)
			pos := fset.Position(c.Pos())
			if len(fields) < 2 || strings.TrimSpace(fields[1]) == "" || fields[0] == "" {
				*diags = append(*diags, Diagnostic{
					Pos:      pos,
					Analyzer: "lint",
					Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\"",
					Hint:     "state which analyzer is suppressed and why",
				})
				continue
			}
			out = append(out, &Ignore{Pos: pos, Analyzer: fields[0], Reason: strings.TrimSpace(fields[1])})
		}
	}
	return out
}

// targetLine is the code line an ignore comment suppresses: the comment's
// own line (trailing form). When nothing else shares the line, the
// directive stands alone and suppresses the next line instead.
func (ig *Ignore) matches(d *Diagnostic) bool {
	if ig.Pos.Filename != d.Pos.Filename {
		return false
	}
	if ig.Analyzer != "all" && ig.Analyzer != d.Analyzer {
		return false
	}
	return d.Pos.Line == ig.Pos.Line || d.Pos.Line == ig.Pos.Line+1
}

// Result is one run of the suite: every diagnostic (suppressed ones
// marked, not dropped) plus every ignore site seen, for the audit
// listing.
type Result struct {
	Diagnostics []Diagnostic
	Ignores     []*Ignore
}

// Unsuppressed returns the findings that should fail a build.
func (r *Result) Unsuppressed() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// SuppressedCount counts findings silenced by an in-scope ignore.
func (r *Result) SuppressedCount() int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Suppressed {
			n++
		}
	}
	return n
}

// Run executes the given analyzers (nil = all) over the packages and
// applies //lint:ignore suppressions. Diagnostics come out sorted by
// file, line, column, analyzer.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) *Result {
	if analyzers == nil {
		analyzers = Analyzers
	}
	res := &Result{}
	for _, pkg := range pkgs {
		var diags []Diagnostic
		var ignores []*Ignore
		for _, f := range pkg.Files {
			ignores = append(ignores, parseIgnores(fset, f, &diags)...)
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
		for i := range diags {
			for _, ig := range ignores {
				if ig.matches(&diags[i]) {
					diags[i].Suppressed = true
					diags[i].SuppressReason = ig.Reason
					ig.Used = true
					break
				}
			}
		}
		res.Diagnostics = append(res.Diagnostics, diags...)
		res.Ignores = append(res.Ignores, ignores...)
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	sort.Slice(res.Ignores, func(i, j int) bool {
		a, b := res.Ignores[i], res.Ignores[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return res
}
