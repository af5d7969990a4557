// Command siwad-lint runs the repo's static-analysis suite: the source
// paper's infinite-wait lens (blocking-under-lock, unreleased acquires,
// broken context flow) over Go packages, using only the standard
// library's go/ast + go/types.
//
// Usage:
//
//	siwad-lint [flags] [packages]
//
//	-analyzers name,name   run only the named analyzers
//	-json                  machine-readable output (one JSON object)
//	-list-ignores          audit every //lint:ignore site and exit
//	-fixtures dir          analyze a bare directory of Go files (golden fixtures)
//
// Exit status: 0 when no unsuppressed diagnostics, 1 when findings
// remain, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

type jsonDiagnostic struct {
	File           string `json:"file"`
	Line           int    `json:"line"`
	Column         int    `json:"column"`
	Analyzer       string `json:"analyzer"`
	Message        string `json:"message"`
	Hint           string `json:"hint,omitempty"`
	Suppressed     bool   `json:"suppressed,omitempty"`
	SuppressReason string `json:"suppress_reason,omitempty"`
}

type jsonIgnore struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
	Used     bool   `json:"used"`
}

type jsonOutput struct {
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
	Suppressed  int              `json:"suppressed"`
	Ignores     []jsonIgnore     `json:"ignores"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("siwad-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		analyzerList = fs.String("analyzers", "", "comma-separated analyzer names (default: all)")
		jsonOut      = fs.Bool("json", false, "emit one machine-readable JSON object")
		listIgnores  = fs.Bool("list-ignores", false, "audit //lint:ignore sites instead of reporting diagnostics")
		fixturesDir  = fs.String("fixtures", "", "analyze a bare directory of Go files instead of packages")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers
	if *analyzerList != "" {
		analyzers = nil
		for _, name := range strings.Split(*analyzerList, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(stderr, "siwad-lint: unknown analyzer %q (have:%s)\n", name, analyzerNames())
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	loader := lint.NewLoader("")
	var pkgs []*lint.Package
	if *fixturesDir != "" {
		pkg, err := loader.LoadDir(*fixturesDir)
		if err != nil {
			fmt.Fprintf(stderr, "siwad-lint: %v\n", err)
			return 2
		}
		pkgs = []*lint.Package{pkg}
	} else {
		patterns := fs.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		var err error
		pkgs, err = loader.Load(patterns...)
		if err != nil {
			fmt.Fprintf(stderr, "siwad-lint: %v\n", err)
			return 2
		}
	}

	res := lint.Run(loader.Fset, pkgs, analyzers)

	if *listIgnores {
		return printIgnores(stdout, res)
	}
	if *jsonOut {
		return printJSON(stdout, stderr, res)
	}
	return printText(stdout, res)
}

func analyzerNames() string {
	var b strings.Builder
	for _, a := range lint.Analyzers {
		b.WriteString(" ")
		b.WriteString(a.Name)
	}
	return b.String()
}

func printText(stdout io.Writer, res *lint.Result) int {
	unsuppressed := res.Unsuppressed()
	for _, d := range unsuppressed {
		fmt.Fprintln(stdout, d.String())
	}
	if n := res.SuppressedCount(); n > 0 {
		fmt.Fprintf(stdout, "siwad-lint: %d finding(s) suppressed by //lint:ignore (run -list-ignores to audit)\n", n)
	}
	if len(unsuppressed) > 0 {
		fmt.Fprintf(stdout, "siwad-lint: %d unsuppressed finding(s)\n", len(unsuppressed))
		return 1
	}
	return 0
}

func printJSON(stdout, stderr io.Writer, res *lint.Result) int {
	out := jsonOutput{
		Diagnostics: []jsonDiagnostic{},
		Suppressed:  res.SuppressedCount(),
		Ignores:     []jsonIgnore{},
	}
	for _, d := range res.Diagnostics {
		out.Diagnostics = append(out.Diagnostics, jsonDiagnostic{
			File:           d.Pos.Filename,
			Line:           d.Pos.Line,
			Column:         d.Pos.Column,
			Analyzer:       d.Analyzer,
			Message:        d.Message,
			Hint:           d.Hint,
			Suppressed:     d.Suppressed,
			SuppressReason: d.SuppressReason,
		})
	}
	for _, ig := range res.Ignores {
		out.Ignores = append(out.Ignores, jsonIgnore{
			File:     ig.Pos.Filename,
			Line:     ig.Pos.Line,
			Analyzer: ig.Analyzer,
			Reason:   ig.Reason,
			Used:     ig.Used,
		})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(stderr, "siwad-lint: encode: %v\n", err)
		return 2
	}
	if len(res.Unsuppressed()) > 0 {
		return 1
	}
	return 0
}

func printIgnores(stdout io.Writer, res *lint.Result) int {
	if len(res.Ignores) == 0 {
		fmt.Fprintln(stdout, "siwad-lint: no //lint:ignore sites")
		return 0
	}
	for _, ig := range res.Ignores {
		used := "unused"
		if ig.Used {
			used = "used"
		}
		fmt.Fprintf(stdout, "%s:%d: [%s] %s (%s)\n", ig.Pos.Filename, ig.Pos.Line, ig.Analyzer, ig.Reason, used)
	}
	return 0
}
