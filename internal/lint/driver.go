package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// listPkg is the slice of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Standard   bool
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	ImportMap  map[string]string
	Module     *struct{ Path string }
	Incomplete bool
}

// Package is one fully typechecked package: the parsed files, the
// go/types object graph, and the resolved type information the analyzers
// read. Only module (non-standard-library) packages are analyzed, but the
// loader typechecks the whole dependency closure from source so that
// cross-package types (sync.Mutex, context.Context, ...) resolve exactly.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Filenames  []string
	Types      *types.Package
	Info       *types.Info
	Standard   bool
}

// Loader typechecks packages from source in dependency order, driven by
// `go list -json -deps`. It is the zero-dependency stand-in for
// golang.org/x/tools/go/packages: the standard library ships everything
// needed (go/parser, go/types, and the go command itself).
type Loader struct {
	Fset *token.FileSet

	dir              string              // module root the go command runs in
	list             map[string]*listPkg // import path -> go list record
	typed            map[string]*Package // import path -> typechecked package
	loading          map[string]bool     // cycle guard (should not fire on valid code)
	fallbackImporter types.Importer      // source importer for paths go list did not cover
}

// NewLoader returns a loader rooted at dir (the module root; "" = cwd).
func NewLoader(dir string) *Loader {
	return &Loader{
		Fset:    token.NewFileSet(),
		dir:     dir,
		list:    make(map[string]*listPkg),
		typed:   make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// goList runs `go list -json -deps patterns...` and merges the records
// into l.list. CGO_ENABLED=0 keeps every package's file list pure Go, so
// the whole closure can be typechecked from source.
func (l *Loader) goList(patterns ...string) error {
	args := append([]string{"list", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	dec := json.NewDecoder(&out)
	for dec.More() {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			return fmt.Errorf("decode go list output: %v", err)
		}
		if _, ok := l.list[p.ImportPath]; !ok {
			cp := p
			l.list[p.ImportPath] = &cp
		}
	}
	return nil
}

// Load lists the packages matching patterns, typechecks them (and their
// whole import closure) from source, and returns the matched module
// packages in deterministic import-path order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// A plain `go list patterns` names the roots; the -deps variant then
	// fills in the whole closure for typechecking.
	roots, err := l.listRoots(patterns...)
	if err != nil {
		return nil, err
	}
	if err := l.goList(patterns...); err != nil {
		return nil, err
	}
	var out []*Package
	for _, ip := range roots {
		p, err := l.typecheck(ip)
		if err != nil {
			return nil, err
		}
		if !p.Standard {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// listRoots runs `go list patterns` (no -deps) for the matched roots.
func (l *Loader) listRoots(patterns ...string) ([]string, error) {
	args := append([]string{"list"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var roots []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			roots = append(roots, line)
		}
	}
	return roots, nil
}

// typecheck returns the typechecked package for importPath, loading its
// imports first (memoized, so each package is checked once per Loader).
func (l *Loader) typecheck(importPath string) (*Package, error) {
	if p, ok := l.typed[importPath]; ok {
		return p, nil
	}
	if importPath == "unsafe" {
		p := &Package{ImportPath: "unsafe", Types: types.Unsafe, Standard: true}
		l.typed["unsafe"] = p
		return p, nil
	}
	lp, ok := l.list[importPath]
	if !ok {
		return nil, fmt.Errorf("package %s not in go list output", importPath)
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	files := make([]*ast.File, 0, len(lp.GoFiles))
	names := make([]string, 0, len(lp.GoFiles))
	for _, f := range lp.GoFiles {
		path := filepath.Join(lp.Dir, f)
		af, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", path, err)
		}
		files = append(files, af)
		names = append(names, path)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer:    importerFunc(func(path string) (*types.Package, error) { return l.importFor(lp, path) }),
		FakeImportC: true,
		Sizes:       types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			// Collected via the returned error below for module packages;
			// standard-library oddities are tolerated by the nil check there.
		},
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil && (lp.Module != nil || !lp.Standard) {
		return nil, fmt.Errorf("typecheck %s: %v", importPath, err)
	}
	p := &Package{
		ImportPath: importPath,
		Dir:        lp.Dir,
		Files:      files,
		Filenames:  names,
		Types:      tpkg,
		Info:       info,
		Standard:   lp.Standard,
	}
	l.typed[importPath] = p
	return p, nil
}

// importFor resolves one import spelling inside pkg: the package's
// ImportMap first (vendored std rewrites like golang.org/x/net/... ->
// vendor/golang.org/x/net/...), then the path verbatim.
func (l *Loader) importFor(from *listPkg, path string) (*types.Package, error) {
	if mapped, ok := from.ImportMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.list[path]; !ok {
		// A path outside the -deps closure (can happen for synthetic
		// fixture loads): fall back to the stdlib source importer.
		if l.fallbackImporter == nil {
			l.fallbackImporter = importer.ForCompiler(l.Fset, "source", nil)
		}
		return l.fallbackImporter.Import(path)
	}
	p, err := l.typecheck(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// LoadDir typechecks a single directory of Go files that is NOT part of
// the module build (golden fixtures under testdata). Imports resolve
// against the standard library; fixture files may not import module
// packages — they declare local stand-in types instead, which is exactly
// what keeps the fixtures frozen as the real code evolves.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(goFiles)
	// Gather the stdlib imports so the topo loader covers them.
	var imports []string
	seen := map[string]bool{}
	files := make([]*ast.File, 0, len(goFiles))
	names := make([]string, 0, len(goFiles))
	for _, f := range goFiles {
		path := filepath.Join(dir, f)
		af, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", path, err)
		}
		files = append(files, af)
		names = append(names, path)
		for _, imp := range af.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if !seen[ip] {
				seen[ip] = true
				imports = append(imports, ip)
			}
		}
	}
	if len(imports) > 0 {
		if err := l.goList(imports...); err != nil {
			return nil, err
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	synthetic := &listPkg{ImportPath: "fixture/" + filepath.Base(dir), Dir: dir}
	conf := types.Config{
		Importer:    importerFunc(func(path string) (*types.Package, error) { return l.importFor(synthetic, path) }),
		FakeImportC: true,
		Sizes:       types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(synthetic.ImportPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck fixture %s: %v", dir, err)
	}
	return &Package{
		ImportPath: synthetic.ImportPath,
		Dir:        dir,
		Files:      files,
		Filenames:  names,
		Types:      tpkg,
		Info:       info,
	}, nil
}
