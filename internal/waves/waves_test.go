package waves

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/sg"
)

func explore(t *testing.T, src string) *Result {
	t.Helper()
	res, err := ExploreProgram(lang.MustParse(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("exploration truncated on small program")
	}
	return res
}

func TestHandshakeCompletes(t *testing.T) {
	res := explore(t, `
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
	if !res.Completed {
		t.Fatal("handshake did not complete")
	}
	if res.HasAnomaly() || res.Deadlock || res.Stall {
		t.Fatalf("handshake flagged anomalous: %+v", res)
	}
	// Waves: (r,u) -> (s,v) -> (e,e): exactly 3 states.
	if res.States != 3 {
		t.Fatalf("states=%d, want 3", res.States)
	}
}

func TestReversedHandshakeDeadlocks(t *testing.T) {
	res := explore(t, `
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
	if !res.Deadlock {
		t.Fatal("deadlock missed")
	}
	if res.Completed {
		t.Fatal("always-deadlocking program reported a completion")
	}
	if res.Stall {
		t.Fatalf("pure deadlock misclassified with a stall: %+v", res.Anomalies)
	}
	if len(res.Anomalies) != 1 || len(res.Anomalies[0].DeadlockSet) != 2 {
		t.Fatalf("anomalies=%+v", res.Anomalies)
	}
}

func TestStallClassification(t *testing.T) {
	// Figure 2(a) style: after the go rendezvous, t2 waits on an accept
	// nobody can ever signal.
	res := explore(t, `
task t1 is
begin
  accept go;
end;
task t2 is
begin
  t1.go;
  z: accept done;
end;
`)
	if !res.Stall {
		t.Fatal("stall missed")
	}
	if res.Deadlock {
		t.Fatal("stall misclassified as deadlock")
	}
	if res.Completed {
		t.Fatal("stalling program cannot complete")
	}
}

func TestMixedChoiceBothOutcomes(t *testing.T) {
	// t1 picks a branch: one branch handshakes correctly, the other
	// deadlocks against t2's fixed order.
	res := explore(t, `
task t1 is
begin
  if lucky then
    t2.m;
    accept r;
  else
    accept r;
    t2.m;
  end if;
end;
task t2 is
begin
  accept m;
  t1.r;
end;
`)
	if !res.Completed {
		t.Fatal("lucky branch should complete")
	}
	if !res.Deadlock {
		t.Fatal("unlucky branch should deadlock")
	}
}

func TestRingDeadlock(t *testing.T) {
	res := explore(t, `
task p0 is
begin
  p1.fork;
  accept fork;
end;
task p1 is
begin
  p2.fork;
  accept fork;
end;
task p2 is
begin
  p0.fork;
  accept fork;
end;
`)
	if !res.Deadlock {
		t.Fatal("ring deadlock missed")
	}
	// Some interleavings complete (e.g. p0 sends to p1 only after p1 has
	// cycled)... in this all-send-first ring no rendezvous is ever
	// possible: each send targets the next task's accept which sits
	// behind that task's own send. Actually p1's accept fork is behind
	// its send; no pair is ever simultaneously ready.
	if res.Completed {
		t.Fatal("all-send-first ring cannot complete")
	}
}

func TestBoundedLoopsExact(t *testing.T) {
	// Producer sends exactly 3; consumer accepts exactly 3: completes.
	res := explore(t, `
task prod is
begin
  loop 3 times
    cons.item;
  end loop;
end;
task cons is
begin
  loop 3 times
    accept item;
  end loop;
end;
`)
	if !res.Completed || res.HasAnomaly() {
		t.Fatalf("balanced bounded loops: %+v", res)
	}
	// Mismatched counts: consumer wants one more -> stall.
	res2 := explore(t, `
task prod is
begin
  loop 2 times
    cons.item;
  end loop;
end;
task cons is
begin
  loop 3 times
    accept item;
  end loop;
end;
`)
	if !res2.Stall {
		t.Fatal("count mismatch should stall")
	}
}

func TestWhileLoopNondeterministic(t *testing.T) {
	// A while-loop consumer can stop at any time; producer sends once.
	// Some interleavings complete, none deadlock; a stall occurs when the
	// consumer exits before accepting (producer stuck)... except the
	// consumer CFG always allows accepting later? No: once at e it cannot
	// go back, so the producer stalls in that interleaving.
	res := explore(t, `
task prod is
begin
  cons.item;
end;
task cons is
begin
  while more loop
    accept item;
  end loop;
end;
`)
	if !res.Completed {
		t.Fatal("some interleaving completes")
	}
	if !res.Stall {
		t.Fatal("early-exit interleaving should stall the producer")
	}
	if res.Deadlock {
		t.Fatal("no circular wait exists here")
	}
}

func TestTruncation(t *testing.T) {
	res, err := ExploreProgram(lang.MustParse(`
task a is
begin
  loop 10 times
    b.m;
  end loop;
end;
task b is
begin
  loop 10 times
    accept m;
  end loop;
end;
`), Options{MaxStates: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("truncation not reported")
	}
}

func TestTheorem1PartitionOnAnomalies(t *testing.T) {
	// Every anomalous wave must satisfy the Theorem 1 partition.
	srcs := []string{
		`
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
`,
		`
task t1 is
begin
  accept go;
end;
task t2 is
begin
  t1.go;
  accept done;
end;
`,
		`
task a is
begin
  if c then
    b.m;
  end if;
end;
task b is
begin
  accept m;
end;
`,
	}
	for i, src := range srcs {
		p := lang.MustParse(src)
		g := sg.MustFromProgram(p)
		res := Explore(g, Options{})
		for _, a := range res.Anomalies {
			if err := VerifyTheorem1(g, a); err != nil {
				t.Fatalf("case %d: %v (wave %v)", i, err, a.Wave)
			}
		}
	}
}

func TestManySendersOneAccept(t *testing.T) {
	// Any number of tasks can signal one accepting task; two senders race
	// for one accept: one sender must stall.
	res := explore(t, `
task srv is
begin
  accept req;
end;
task c1 is
begin
  srv.req;
end;
task c2 is
begin
  srv.req;
end;
`)
	if res.Completed {
		t.Fatal("one request must always be left over")
	}
	if !res.Stall {
		t.Fatal("losing client should stall")
	}
}

func TestTraces(t *testing.T) {
	// The mixed-choice program deadlocks after one successful rendezvous
	// on the unlucky branch? No — the unlucky branch deadlocks with zero
	// rendezvous... use a two-phase program: phase 1 handshakes, phase 2
	// reverses the order and deadlocks, so the trace has length >= 1.
	res, err := ExploreProgram(lang.MustParse(`
task t1 is
begin
  a: t2.m;
  b: accept r;
  c: accept r;
end;
task t2 is
begin
  x: accept m;
  y: t1.r;
  z: t1.r;
end;
`), Options{Traces: true})
	if err != nil {
		t.Fatal(err)
	}
	// This program completes (a-x, b-y, c-z); build a deadlocking one.
	if res.HasAnomaly() {
		t.Fatalf("unexpected anomaly: %+v", res.Anomalies)
	}
	res2, err := ExploreProgram(lang.MustParse(`
task t1 is
begin
  a: t2.m;
  b: accept r;
  c: t2.m;
end;
task t2 is
begin
  x: accept m;
  y: accept m;
  z: t1.r;
end;
`), Options{Traces: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.HasAnomaly() {
		t.Fatal("expected an anomaly")
	}
	found := false
	for _, a := range res2.Anomalies {
		if len(a.Trace) >= 1 {
			found = true
			// Every traced rendezvous must be a real sync pair.
			g, _ := ExploreProgramGraph(lang.MustParse(`
task t1 is
begin
  a: t2.m;
  b: accept r;
  c: t2.m;
end;
task t2 is
begin
  x: accept m;
  y: accept m;
  z: t1.r;
end;
`), 0)
			for _, r := range a.Trace {
				if !g.HasSyncEdge(r.U, r.V) {
					t.Fatalf("trace step %v is not a sync pair", r)
				}
			}
		}
	}
	if !found {
		t.Fatal("no anomaly carried a nonempty trace")
	}
}

func TestRendezvousFreeProgram(t *testing.T) {
	res := explore(t, `
task a is
begin
  null;
end;
task b is
begin
  null;
end;
`)
	if !res.Completed || res.HasAnomaly() {
		t.Fatalf("trivial program: %+v", res)
	}
	if res.States != 1 {
		t.Fatalf("states=%d, want 1", res.States)
	}
}
