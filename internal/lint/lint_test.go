package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFixture loads one golden-fixture directory and runs the given
// analyzers over it.
func runFixture(t *testing.T, name string, analyzers []*Analyzer) *Result {
	t.Helper()
	l := NewLoader("")
	pkg, err := l.LoadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return Run(l.Fset, []*Package{pkg}, analyzers)
}

// wantExp is one `// want `+"`regex`"+` expectation: the diagnostic the
// fixture line must produce.
type wantExp struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("// want `([^`]+)`")

func parseWants(t *testing.T, dir string) []*wantExp {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	var wants []*wantExp
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regex %q: %v", path, line, m[1], err)
			}
			wants = append(wants, &wantExp{file: path, line: line, re: re})
		}
		f.Close()
	}
	return wants
}

// checkFixture asserts exact two-way coverage: every unsuppressed
// diagnostic matches a want on its line, every want is hit.
func checkFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	res := runFixture(t, name, analyzers)
	wants := parseWants(t, filepath.Join("testdata", name))
	for _, d := range res.Unsuppressed() {
		found := false
		for _, wt := range wants {
			if wt.file == d.Pos.Filename && wt.line == d.Pos.Line && wt.re.MatchString(d.Message) {
				wt.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d.String())
		}
	}
	for _, wt := range wants {
		if !wt.matched {
			t.Errorf("%s:%d: want %q, got no matching diagnostic", wt.file, wt.line, wt.re)
		}
	}
}

func TestWaitlockFixtures(t *testing.T) {
	checkFixture(t, "waitlock", []*Analyzer{WaitlockAnalyzer})
}

// TestPairupFixtures covers the acceptance gate for the PR-5 bug
// history: the breaker probe-slot leak shape must be detected.
func TestPairupFixtures(t *testing.T) {
	checkFixture(t, "pairup", []*Analyzer{PairupAnalyzer})
}

func TestCtxflowFixtures(t *testing.T) {
	checkFixture(t, "ctxflow", []*Analyzer{CtxflowAnalyzer})
}

// TestPairupDetectsHistoricalBugShapes pins the acceptance criterion
// explicitly by function name, independent of the want comments: the
// breaker shape must produce a pairup diagnostic. (The other historical
// shape, an abandoned single-flight leadership, cannot be written any
// more: memo.Flight ends its flights in a defer, and the memo and
// gateway tests pin that under panics, which pairup never modelled.)
func TestPairupDetectsHistoricalBugShapes(t *testing.T) {
	res := runFixture(t, "pairup", []*Analyzer{PairupAnalyzer})
	var breakerLeak bool
	for _, d := range res.Unsuppressed() {
		if strings.Contains(d.Message, "breaker probe slot") {
			breakerLeak = true
		}
	}
	if !breakerLeak {
		t.Error("pairup did not flag the PR-5 breaker probe-slot leak shape")
	}
}

// TestIgnoreMechanics: a well-formed directive suppresses exactly its
// target and is recorded for the audit; a reason-less directive is a
// diagnostic itself and suppresses nothing.
func TestIgnoreMechanics(t *testing.T) {
	res := runFixture(t, "ignore", []*Analyzer{CtxflowAnalyzer})
	if got := res.SuppressedCount(); got != 1 {
		t.Errorf("SuppressedCount = %d, want 1", got)
	}
	var malformed, unsuppressedCtxflow int
	for _, d := range res.Unsuppressed() {
		switch d.Analyzer {
		case "lint":
			malformed++
		case "ctxflow":
			unsuppressedCtxflow++
		}
	}
	if malformed != 1 {
		t.Errorf("malformed-directive diagnostics = %d, want 1", malformed)
	}
	if unsuppressedCtxflow != 1 {
		t.Errorf("unsuppressed ctxflow diagnostics = %d, want 1 (the reason-less directive must not suppress)", unsuppressedCtxflow)
	}
	if len(res.Ignores) != 1 {
		t.Fatalf("recorded ignores = %d, want 1 (the malformed one is rejected)", len(res.Ignores))
	}
	ig := res.Ignores[0]
	if strings.TrimSpace(ig.Reason) == "" {
		t.Error("recorded ignore has an empty reason")
	}
	if !ig.Used {
		t.Error("recorded ignore not marked used")
	}
}

// TestRepoIsLintClean runs the full suite over the whole module, the
// same gate CI applies: zero unsuppressed findings, and every
// //lint:ignore in the tree carries a non-empty reason and actually
// suppresses something (a stale ignore is dead weight that would mask a
// future finding).
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	l := NewLoader(moduleRoot(t))
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	res := Run(l.Fset, pkgs, nil)
	for _, d := range res.Unsuppressed() {
		t.Errorf("unsuppressed finding: %s", d.String())
	}
	for _, ig := range res.Ignores {
		if strings.TrimSpace(ig.Reason) == "" {
			t.Errorf("%s:%d: //lint:ignore with empty reason", ig.Pos.Filename, ig.Pos.Line)
		}
		if !ig.Used {
			t.Errorf("%s:%d: stale //lint:ignore (%s): suppresses nothing", ig.Pos.Filename, ig.Pos.Line, ig.Analyzer)
		}
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestDiagnosticString pins the one-line rendering format the CLI and CI
// logs rely on: file:line:col, analyzer tag, message, fix hint.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Analyzer: "pairup",
		Message:  "breaker probe slot acquired at line 3 is not released on this path",
		Hint:     "resolve the slot",
	}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 9
	d.Pos.Column = 2
	got := d.String()
	want := "x.go:9:2: [pairup] breaker probe slot acquired at line 3 is not released on this path (fix: resolve the slot)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestAnalyzerRegistry: stable names, resolvable via ByName, docs
// present — the CLI's -analyzers flag and the README table depend on
// these.
func TestAnalyzerRegistry(t *testing.T) {
	wantNames := []string{"waitlock", "pairup", "ctxflow"}
	if len(Analyzers) != len(wantNames) {
		t.Fatalf("len(Analyzers) = %d, want %d", len(Analyzers), len(wantNames))
	}
	for i, name := range wantNames {
		if Analyzers[i].Name != name {
			t.Errorf("Analyzers[%d].Name = %q, want %q", i, Analyzers[i].Name, name)
		}
		if ByName(name) != Analyzers[i] {
			t.Errorf("ByName(%q) did not resolve", name)
		}
		if Analyzers[i].Doc == "" {
			t.Errorf("analyzer %q has no doc", name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName(nope) should be nil")
	}
}
