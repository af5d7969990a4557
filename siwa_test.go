package siwa

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/waves"
)

func TestAnalyzeHandshake(t *testing.T) {
	p := MustParse(`
task t1 is
begin
  t2.sig1;
  accept sig2;
end;
task t2 is
begin
  accept sig1;
  t1.sig2;
end;
`)
	rep, err := Analyze(p, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deadlock.MayDeadlock {
		t.Fatal("handshake flagged")
	}
	if !rep.DeadlockFree() {
		t.Fatal("DeadlockFree() false")
	}
	if !rep.Stall.StallFree() {
		t.Fatal("balanced handshake flagged for stall")
	}
	if rep.Exact == nil || rep.Exact.HasAnomaly() {
		t.Fatalf("exact: %+v", rep.Exact)
	}
	if rep.Unrolled != rep.Program {
		t.Fatal("loop-free program should not be rewritten")
	}
	s := rep.Summary()
	if !strings.Contains(s, "DEADLOCK-FREE") {
		t.Fatalf("summary:\n%s", s)
	}
}

func TestAnalyzeDeadlock(t *testing.T) {
	p := MustParse(`
task t1 is
begin
  accept sig1;
  t2.sig2;
end;
task t2 is
begin
  accept sig2;
  t1.sig1;
end;
`)
	rep, err := Analyze(p, Options{AllAlgorithms: true, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deadlock.MayDeadlock || !rep.Exact.Deadlock {
		t.Fatal("deadlock missed")
	}
	if len(rep.Spectrum) != 5 {
		t.Fatalf("spectrum=%d", len(rep.Spectrum))
	}
	for _, v := range rep.Spectrum {
		if !v.MayDeadlock {
			t.Fatalf("%v certified a real deadlock", v.Algorithm)
		}
	}
	s := rep.Summary()
	if !strings.Contains(s, "MAY DEADLOCK") || !strings.Contains(s, "witness") {
		t.Fatalf("summary:\n%s", s)
	}
}

func TestAnalyzeLoopyProgramUnrolls(t *testing.T) {
	p := MustParse(`
task a is
begin
  while more loop
    b.m;
  end loop;
end;
task b is
begin
  while more loop
    accept m;
  end loop;
end;
`)
	// Unrolling duplicates the same-signal rendezvous, which (as with the
	// Figure-1 class) the single-head refined detector cannot clear; the
	// head-pair extension certifies it.
	rep, err := Analyze(p, Options{Algorithm: AlgoRefinedPairs})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrolled == rep.Program {
		t.Fatal("loops not unrolled")
	}
	if rep.Unrolled.CountRendezvous() != 2*p.CountRendezvous() {
		t.Fatalf("unroll factor wrong: %d vs %d", rep.Unrolled.CountRendezvous(), p.CountRendezvous())
	}
	if rep.Deadlock.MayDeadlock {
		t.Fatal("producer/consumer loop flagged by head pairs")
	}
	// Summary mentions the transform.
	if !strings.Contains(rep.Summary(), "Lemma 1") {
		t.Fatalf("summary:\n%s", rep.Summary())
	}
}

func TestAnalyzeStallReport(t *testing.T) {
	p := MustParse(`
task t1 is
begin
  accept go;
end;
task t2 is
begin
  t1.go;
  accept done;
end;
`)
	rep, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stall.StallFree() {
		t.Fatal("missing sender not reported")
	}
	if !strings.Contains(rep.Summary(), "POSSIBLE STALL") {
		t.Fatalf("summary:\n%s", rep.Summary())
	}
}

func TestAnalyzeConstraint4(t *testing.T) {
	p := MustParse(`
task T1 is
begin
  r: accept mr;
  s: T2.mt;
end;
task T2 is
begin
  t: accept mt;
  u: T1.mr;
  v: accept mt;
end;
task W is
begin
  w: T2.mt;
end;
`)
	rep, err := Analyze(p, Options{Constraint4: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deadlock.MayDeadlock {
		t.Fatal("local constraints should leave the figure-3 cycle")
	}
	if !rep.Constraint4Conclusive || !rep.Constraint4Free {
		t.Fatal("constraint 4 certification failed")
	}
	if !rep.DeadlockFree() {
		t.Fatal("overall verdict should be deadlock-free")
	}
}

func TestAnalyzeFIFO(t *testing.T) {
	// A loop-free pipeline stage pair with repeated messages: the FIFO
	// refinement removes the out-of-order pairings and even naive
	// certifies.
	src := `
task a is
begin
  b.m;
  b.m;
  b.m;
end;
task b is
begin
  accept m;
  accept m;
  accept m;
end;
`
	base, err := Analyze(MustParse(src), Options{Algorithm: AlgoNaive})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Deadlock.MayDeadlock {
		t.Fatal("expected the baseline false alarm")
	}
	fifo, err := Analyze(MustParse(src), Options{Algorithm: AlgoNaive, FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	if fifo.FIFORemoved != 6 {
		t.Fatalf("removed=%d, want 6 off-diagonal edges", fifo.FIFORemoved)
	}
	if fifo.Deadlock.MayDeadlock {
		t.Fatal("naive+FIFO should certify")
	}
	if !strings.Contains(fifo.Summary(), "FIFO refinement") {
		t.Fatalf("summary:\n%s", fifo.Summary())
	}
	// Loopy programs: the refinement must be skipped.
	loopy, err := Analyze(MustParse(`
task a is
begin
  loop 3 times
    b.m;
  end loop;
end;
task b is
begin
  loop 3 times
    accept m;
  end loop;
end;
`), Options{FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	if loopy.FIFORemoved != 0 {
		t.Fatal("FIFO refinement applied through the unroll; unsound")
	}
}

func TestAnalyzeProcedures(t *testing.T) {
	// Interprocedural extension: calls are inlined before analysis; the
	// handshake hidden inside the procedure is found in both directions.
	p := MustParse(`
procedure exchange is
begin
  peer.ping;
  accept pong;
end;

task me is
begin
  call exchange;
end;

task peer is
begin
  accept ping;
  me.pong;
end;
`)
	rep, err := Analyze(p, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deadlock.MayDeadlock || rep.Exact.HasAnomaly() {
		t.Fatalf("clean interprocedural handshake flagged:\n%s", rep.Summary())
	}
	if !strings.Contains(rep.Summary(), "procedures inlined") {
		t.Fatalf("summary:\n%s", rep.Summary())
	}
	// The deadlocking variant: both tasks accept first inside procedures.
	p2 := MustParse(`
procedure waitFirst1 is
begin
  accept a;
  t2.b;
end;
procedure waitFirst2 is
begin
  accept b;
  t1.a;
end;
task t1 is
begin
  call waitFirst1;
end;
task t2 is
begin
  call waitFirst2;
end;
`)
	rep2, err := Analyze(p2, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Deadlock.MayDeadlock || !rep2.Exact.Deadlock {
		t.Fatal("interprocedural deadlock missed")
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	p := &Program{}
	if _, err := Analyze(p, Options{}); err == nil {
		t.Fatal("empty program accepted")
	}
}

func TestWitnessLabels(t *testing.T) {
	p := MustParse(`
task t1 is
begin
  r: accept sig1;
  s: t2.sig2;
end;
task t2 is
begin
  u: accept sig2;
  v: t1.sig1;
end;
`)
	rep, err := Analyze(p, Options{Algorithm: AlgoNaive})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deadlock.Witnesses) == 0 {
		t.Fatal("no witness")
	}
	labels := rep.WitnessLabels(rep.Deadlock.Witnesses[0])
	joined := strings.Join(labels, " ")
	for _, want := range []string{"r", "s", "u", "v"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("labels=%v", labels)
		}
	}
}

func TestAnalyzeContextCancelled(t *testing.T) {
	p := MustParse(`
task t1 is
begin
  t2.sig1;
  accept sig2;
end;
task t2 is
begin
  accept sig1;
  t1.sig2;
end;
`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeContext(ctx, p, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	// Background context behaves exactly like Analyze.
	rep, err := AnalyzeContext(context.Background(), p, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deadlock.MayDeadlock || rep.Exact == nil {
		t.Fatalf("rep: %+v", rep.Deadlock)
	}
}

// TestAnalyzeContextDeadlineInterruptsExact checks the promptness claim:
// an already-expired deadline aborts an Exact exploration whose wave space
// is exponential, wrapping context.DeadlineExceeded.
func TestAnalyzeContextDeadlineInterruptsExact(t *testing.T) {
	p := MustParse(forkFanSource(7, 5))
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := AnalyzeContext(ctx, p, Options{Exact: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// forkFanSource mirrors workload.ForkFan without importing it (the
// workload package is internal test tooling; this keeps the root package's
// tests self-contained).
func forkFanSource(n, depth int) string {
	var b strings.Builder
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "task a%d is\nbegin\n", k)
		for d := 0; d < depth; d++ {
			fmt.Fprintf(&b, "  b%d.m;\n", k)
		}
		b.WriteString("end;\n")
		fmt.Fprintf(&b, "task b%d is\nbegin\n", k)
		for d := 0; d < depth; d++ {
			b.WriteString("  accept m;\n")
		}
		b.WriteString("end;\n")
	}
	return b.String()
}

// TestExactHonoursLoopExpansionLimit checks that the exact stage expands
// bounded loops under Options.ExactOptions.LoopExpansionLimit, as
// waves.ExploreProgram does, rather than under the explorer's default of
// cfg.DefaultExpansionLimit: a raised limit admits a loop the default
// refuses, and a lowered one refuses a loop the default admits.
func TestExactHonoursLoopExpansionLimit(t *testing.T) {
	loops := func(n int) string {
		return fmt.Sprintf(`
task a is begin loop %d times b.m; end loop; end;
task b is begin loop %d times accept m; end loop; end;`, n, n)
	}
	for _, tc := range []struct {
		count, limit int
		wantErr      bool
	}{
		{count: 100, limit: 128, wantErr: false},
		{count: 5, limit: 2, wantErr: true},
	} {
		p := MustParse(loops(tc.count))
		eo := waves.Options{LoopExpansionLimit: tc.limit}
		_, werr := waves.ExploreProgram(p, eo)
		if (werr != nil) != tc.wantErr {
			t.Fatalf("loop %d times, limit %d: waves.ExploreProgram err=%v, want error %v",
				tc.count, tc.limit, werr, tc.wantErr)
		}
		rep, err := Analyze(p, Options{Exact: true, ExactOptions: eo})
		if (err != nil) != tc.wantErr {
			t.Errorf("loop %d times, limit %d: Analyze err=%v, want error %v",
				tc.count, tc.limit, err, tc.wantErr)
			continue
		}
		if err == nil && (rep.Exact.States == 0 || rep.Exact.HasAnomaly()) {
			t.Errorf("loop %d times, limit %d: exact result %+v", tc.count, tc.limit, rep.Exact)
		}
	}
}
