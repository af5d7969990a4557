// Package waves implements the paper's model of program execution exactly:
// the set of feasible execution waves NextWavesSet*(W_INIT) (§2), explored
// as a finite state space. A wave holds one sync-graph node per task;
// advancing a wave fires one rendezvous between two wave nodes joined by a
// sync edge and moves both tasks to nondeterministically chosen control
// successors.
//
// The explorer serves two roles in the reproduction:
//
//  1. Ground truth. The language semantics make branch outcomes opaque and
//     nondeterministic ("all control flow paths executable"), so the wave
//     closure is the exact definition of a program's possible behaviours;
//     bounded loops are expanded precisely first (cfg.ExpandBounded).
//  2. Baseline. The closure is precisely the concurrency-state-graph style
//     analysis (Taylor 1983) whose exponential growth motivates the
//     paper's polynomial algorithms; BenchmarkExactVsStatic measures it.
//
// Anomalous waves are classified per §2 into stalls (some wave node has no
// complementary node in any task's control-flow future) and deadlocks (the
// wave's coupling digraph has a cycle).
package waves

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/sg"
)

// The explorer's budgets when Options leaves them 0.
const (
	DefaultMaxStates    = 1 << 20
	DefaultMaxAnomalies = 64
)

// Options tunes the exploration.
type Options struct {
	// MaxStates caps the number of distinct waves explored; 0 means
	// DefaultMaxStates. When exceeded, Result.Truncated is set and results
	// are partial.
	MaxStates int
	// MaxAnomalies caps recorded anomalous waves; 0 means
	// DefaultMaxAnomalies. Counting continues past the cap, recording
	// stops.
	MaxAnomalies int
	// LoopExpansionLimit is passed to cfg.ExpandBounded; 0 means
	// cfg.DefaultExpansionLimit.
	LoopExpansionLimit int
	// Traces records, for each reported anomaly, the sequence of
	// rendezvous leading from the initial wave to the anomalous one
	// (costs one parent pointer per explored state).
	Traces bool
	// Cancel, when non-nil, is polled periodically during exploration;
	// returning true stops the search early with Result.Cancelled (and
	// Truncated) set. Callers with a context typically pass
	// func() bool { return ctx.Err() != nil }.
	Cancel func() bool
	// Trace, when non-nil, receives the exploration's work counters
	// (states, transitions, anomalous waves) at the end of the search.
	Trace *obs.Span
}

// Rendezvous is one fired synchronization: the two node ids that met.
type Rendezvous struct {
	U, V int
}

// Anomaly is one anomalous execution wave with its classification.
type Anomaly struct {
	// Wave holds the sync-graph node id each task is stuck at (or the id
	// of e for finished tasks).
	Wave []int
	// StallNodes are wave members with no complementary node reachable in
	// any task's future (the paper's stall nodes).
	StallNodes []int
	// DeadlockSet are wave members on a cycle of the coupling digraph
	// (the head nodes D of a deadlock).
	DeadlockSet []int
	// Trace is the rendezvous sequence from the initial wave to this
	// anomaly (only when Options.Traces was set).
	Trace []Rendezvous
}

// Result summarizes a wave-space exploration.
type Result struct {
	// States is the number of distinct feasible waves (|NextWavesSet*|).
	States int
	// Transitions counts wave-advance edges explored.
	Transitions int
	// Completed reports whether some execution reaches all-tasks-at-e.
	Completed bool
	// Deadlock and Stall report whether any reachable wave exhibits each
	// anomaly class. AnomalousWaves counts all anomalous waves reached.
	Deadlock       bool
	Stall          bool
	AnomalousWaves int
	// Anomalies holds up to MaxAnomalies classified anomalous waves.
	Anomalies []Anomaly
	// Truncated reports that MaxStates was hit; absence of anomalies is
	// then inconclusive.
	Truncated bool
	// Cancelled reports that Options.Cancel stopped the search early;
	// Truncated is also set, since the results are partial.
	Cancelled bool
}

// HasAnomaly reports whether any infinite-wait anomaly was found.
func (r *Result) HasAnomaly() bool { return r.AnomalousWaves > 0 }

// Explore computes the feasible wave closure of a sync graph.
// The sync graph's control structure may contain cycles (while loops);
// the state space is still finite because waves range over node vectors.
func Explore(g *sg.Graph, opt Options) *Result {
	if opt.MaxStates == 0 {
		opt.MaxStates = DefaultMaxStates
	}
	if opt.MaxAnomalies == 0 {
		opt.MaxAnomalies = DefaultMaxAnomalies
	}
	e := &explorer{g: g, opt: opt, res: &Result{}, seen: map[string]bool{}}
	if opt.Traces {
		e.parent = map[string]parentRec{}
	}
	e.run()
	if t := opt.Trace; t != nil {
		t.Add("states", int64(e.res.States))
		t.Add("transitions", int64(e.res.Transitions))
		t.Add("anomalous_waves", int64(e.res.AnomalousWaves))
		if e.res.Truncated {
			t.Add("truncated", 1)
		}
	}
	return e.res
}

// ExploreProgram expands bounded loops exactly, builds the sync graph and
// explores it. This is the exact reference analysis for a program.
//
// Node ids in the result (waves, stall nodes, deadlock sets, traces) refer
// to the *expanded* program's sync graph; obtain it with
// ExploreProgramGraph to interpret them.
func ExploreProgram(p *lang.Program, opt Options) (*Result, error) {
	g, err := ExploreProgramGraph(p, opt.LoopExpansionLimit)
	if err != nil {
		return nil, err
	}
	return Explore(g, opt), nil
}

// ExploreProgramGraph returns the sync graph ExploreProgram analyzes for
// p under Options.LoopExpansionLimit loopLimit: the graph of the
// bounded-loop-expanded program.
func ExploreProgramGraph(p *lang.Program, loopLimit int) (*sg.Graph, error) {
	if len(p.Procs) > 0 || p.HasCalls() {
		p = p.InlineCalls()
	}
	expanded, err := cfg.ExpandBounded(p, loopLimit)
	if err != nil {
		return nil, err
	}
	return sg.FromProgram(expanded)
}

type explorer struct {
	g    *sg.Graph
	opt  Options
	res  *Result
	seen map[string]bool
	// queue of states (breadth-first keeps witness waves short).
	queue [][]int
	// parent[key] records how a wave was first reached, for traces.
	parent map[string]parentRec
}

type parentRec struct {
	prev  string
	fired Rendezvous
	init  bool
}

func encode(w []int) string {
	b := make([]byte, 0, len(w)*3)
	for _, v := range w {
		b = append(b, byte(v), byte(v>>8), byte(v>>16))
	}
	return string(b)
}

func (e *explorer) push(w []int, from string, fired Rendezvous, init bool) {
	k := encode(w)
	if e.seen[k] {
		return
	}
	e.seen[k] = true
	e.res.States++
	e.queue = append(e.queue, w)
	if e.parent != nil {
		e.parent[k] = parentRec{prev: from, fired: fired, init: init}
	}
}

// trace reconstructs the rendezvous sequence that first reached the wave
// with the given key.
func (e *explorer) trace(key string) []Rendezvous {
	var rev []Rendezvous
	for k := key; ; {
		rec, ok := e.parent[k]
		if !ok || rec.init {
			break
		}
		rev = append(rev, rec.fired)
		k = rec.prev
	}
	out := make([]Rendezvous, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

func (e *explorer) run() {
	g := e.g
	nt := len(g.Tasks)

	// Initial waves: the cartesian product of per-task initial frontiers.
	initial := make([][]int, nt)
	for ti := 0; ti < nt; ti++ {
		initial[ti] = g.InitialNodes(ti)
		if len(initial[ti]) == 0 {
			// Task with an empty CFG frontier cannot occur for validated
			// programs, but guard anyway: treat as finished.
			initial[ti] = []int{g.E}
		}
	}
	wave := make([]int, nt)
	var gen func(ti int)
	gen = func(ti int) {
		if e.res.States >= e.opt.MaxStates {
			e.res.Truncated = true
			return
		}
		if ti == nt {
			e.push(append([]int(nil), wave...), "", Rendezvous{}, true)
			return
		}
		for _, v := range initial[ti] {
			wave[ti] = v
			gen(ti + 1)
		}
	}
	gen(0)

	for steps := 0; len(e.queue) > 0; steps++ {
		// Poll for cancellation every few waves so a context deadline
		// interrupts even exponential state spaces promptly.
		if e.opt.Cancel != nil && steps&0xFF == 0 && e.opt.Cancel() {
			e.res.Cancelled = true
			e.res.Truncated = true
			return
		}
		w := e.queue[0]
		e.queue = e.queue[1:]
		e.step(w)
		if e.res.States >= e.opt.MaxStates {
			e.res.Truncated = true
			return
		}
	}
}

// step expands one wave: fire every enabled rendezvous with every
// combination of control successors; classify the wave if none is enabled.
func (e *explorer) step(w []int) {
	g := e.g
	key := ""
	if e.parent != nil {
		key = encode(w)
	}
	advanced := false
	for u := 0; u < len(w); u++ {
		if w[u] == g.E {
			continue
		}
		for v := u + 1; v < len(w); v++ {
			if w[v] == g.E || !g.HasSyncEdge(w[u], w[v]) {
				continue
			}
			advanced = true
			for _, nu := range g.Control.Succ(w[u]) {
				for _, nv := range g.Control.Succ(w[v]) {
					nw := append([]int(nil), w...)
					nw[u], nw[v] = nu, nv
					e.res.Transitions++
					e.push(nw, key, Rendezvous{U: w[u], V: w[v]}, false)
					if e.res.States >= e.opt.MaxStates {
						return
					}
				}
			}
		}
	}
	if advanced {
		return
	}
	// Terminal wave: success or anomaly.
	allDone := true
	for _, x := range w {
		if x != g.E {
			allDone = false
			break
		}
	}
	if allDone {
		e.res.Completed = true
		return
	}
	e.res.AnomalousWaves++
	a := classify(g, w)
	if len(a.StallNodes) > 0 {
		e.res.Stall = true
	}
	if len(a.DeadlockSet) > 0 {
		e.res.Deadlock = true
	}
	if len(e.res.Anomalies) < e.opt.MaxAnomalies {
		if e.parent != nil {
			a.Trace = e.trace(key)
		}
		e.res.Anomalies = append(e.res.Anomalies, a)
	}
}

// classify applies the paper's §2 definitions to an anomalous wave.
func classify(g *sg.Graph, w []int) Anomaly {
	a := Anomaly{Wave: append([]int(nil), w...)}

	// Future set: nodes reachable from any wave node via control edges,
	// including the wave nodes themselves.
	future := g.Control.ReachableFrom(liveNodes(g, w)...)

	// Stall nodes: wave node r with no complementary node in the future.
	for _, r := range w {
		if r == g.E {
			continue
		}
		stalled := true
		for _, z := range g.Sync[r] {
			if future[z] {
				stalled = false
				break
			}
		}
		if stalled {
			a.StallNodes = append(a.StallNodes, r)
		}
	}

	// Coupling digraph over live wave nodes: edge s->r iff some strict
	// control descendant of s is a sync neighbor of r ("r is coupled to
	// s"). A deadlock set exists iff this digraph has a cycle; its members
	// are the nodes inside cycles (nodes in nontrivial SCCs; self-edges
	// cannot occur because a node is not its own sync neighbor's ancestor
	// in a way that forms a one-node cycle with >= 1 control edge and one
	// sync edge back to itself of complementary sign in the same task —
	// sends and accepts of one signal live in different tasks for sends).
	live := liveNodes(g, w)
	idx := map[int]int{}
	for i, r := range live {
		idx[r] = i
	}
	n := len(live)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i, s := range live {
		// strict future of s: successors' reachability.
		strict := g.Control.ReachableFrom(g.Control.Succ(s)...)
		strict[s] = false // require at least one control edge
		for j, r := range live {
			if i == j {
				continue
			}
			for _, z := range g.Sync[r] {
				if strict[z] {
					adj[i][j] = true
					break
				}
			}
		}
	}
	// Nodes on cycles: i and j mutually reachable for some j (including
	// longer cycles) — use simple DFS-based reachability over the tiny
	// digraph (n = task count).
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
		stack := []int{i}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for y := 0; y < n; y++ {
				if adj[x][y] && !reach[i][y] {
					reach[i][y] = true
					stack = append(stack, y)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if reach[i][i] {
			a.DeadlockSet = append(a.DeadlockSet, live[i])
		}
	}
	return a
}

func liveNodes(g *sg.Graph, w []int) []int {
	var out []int
	for _, r := range w {
		if r != g.E {
			out = append(out, r)
		}
	}
	return out
}

// VerifyTheorem1 checks the paper's Theorem 1 on one anomalous wave: every
// live wave node must be a stall node, a deadlock participant, or
// transitively coupled to one. It returns an error naming any node that
// violates the partition (which would falsify the theorem or reveal an
// implementation bug).
func VerifyTheorem1(g *sg.Graph, a Anomaly) error {
	bad := map[int]bool{}
	for _, r := range a.StallNodes {
		bad[r] = true
	}
	for _, r := range a.DeadlockSet {
		bad[r] = true
	}
	live := liveNodes(g, a.Wave)
	// Propagate: r becomes bad if r is coupled to some bad s (s's strict
	// future contains a sync neighbor of r).
	changed := true
	for changed {
		changed = false
		for _, r := range live {
			if bad[r] {
				continue
			}
			for _, s := range live {
				if s == r || !bad[s] {
					continue
				}
				strict := g.Control.ReachableFrom(g.Control.Succ(s)...)
				coupled := false
				for _, z := range g.Sync[r] {
					if strict[z] {
						coupled = true
						break
					}
				}
				if coupled {
					bad[r] = true
					changed = true
					break
				}
			}
		}
	}
	for _, r := range live {
		if !bad[r] {
			return fmt.Errorf("waves: node %s on anomalous wave is neither stalled, deadlocked, nor transitively coupled to an anomaly", g.Nodes[r])
		}
	}
	return nil
}
