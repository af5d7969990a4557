package lang

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// addCorpusSeeds feeds every checked-in example program (the repo-root
// testdata/*.ada corpus) to a fuzz target, so fuzzing starts from real
// programs exercising every construct, not just the inline snippets.
func addCorpusSeeds(f *testing.F) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ada"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no testdata seeds found")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
}

// FuzzParse checks that the parser never panics, and that accepted
// programs survive a print/reparse round trip with identical structure.
// Seeds cover every statement form; `go test -fuzz=FuzzParse` explores
// further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"task a is begin null; end;",
		"task a is begin b.m; end; task b is begin accept m; end;",
		"task a is begin l: accept m; end; task b is begin a.m; end;",
		"task a is begin if c then null; else null; end if; end;",
		"task a is begin loop 3 times null; end loop; end;",
		"task a is begin while w loop null; end loop; end;",
		"procedure p is begin null; end; task a is begin call p; end;",
		"-- comment only",
		"task a is begin @#$ end;",
		"task a is begin if then end if; end;",
		"task task is begin end;",
		"task a is begin loop 99999999999999999999 times null; end loop; end;",
		strings.Repeat("task a is begin null; end;", 3),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	addCorpusSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		printed := p.String()
		q, err := Parse(printed)
		if err != nil {
			t.Fatalf("printer emitted unparseable source: %v\n%s", err, printed)
		}
		if q.String() != printed {
			t.Fatalf("print not idempotent:\n%s\n---\n%s", printed, q.String())
		}
		if p.CountRendezvous() != q.CountRendezvous() || len(p.Tasks) != len(q.Tasks) {
			t.Fatal("round trip changed structure")
		}
	})
}

// FuzzInline checks that inlining valid programs never panics and always
// eliminates calls.
func FuzzInline(f *testing.F) {
	f.Add("procedure p is begin s.m; end; task a is begin call p; end; task s is begin accept m; end;")
	f.Add("procedure p is begin call q; end; procedure q is begin null; end; task a is begin call p; call p; end;")
	// A self-send reached through a call must fail Parse, not inlining.
	f.Add("procedure A is begin a.A; end; task a is begin call A; end; task A is begin null; end;")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		q := p.InlineCalls()
		if q.HasCalls() || len(q.Procs) != 0 {
			t.Fatal("inline left calls")
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("inlined program invalid: %v", err)
		}
	})
}
