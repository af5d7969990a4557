package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"runtime"
	"sort"
	"sync"

	siwa "repro"
	"repro/internal/service"
	"repro/internal/waves"
)

// hashSeed keys every report hash. Hashes are compared only inside one
// process, so a per-process seed is enough.
var hashSeed = maphash.MakeSeed()

// reportHash hashes one report in compact JSON form.
func reportHash(compact []byte) uint64 { return maphash.Bytes(hashSeed, compact) }

// Response checking works on compact JSON, so it is indifferent to the
// service's indentation and field order: json.Compact validates the body
// once, and the small scanner below finds values inside it.

// singleReport returns the hash of the report in a compacted
// /v1/analyze response body.
func singleReport(body []byte, buf *bytes.Buffer) (uint64, bool) {
	buf.Reset()
	if json.Compact(buf, body) != nil {
		return 0, false
	}
	rep := field(buf.Bytes(), "report")
	if len(rep) == 0 || rep[0] != '{' {
		return 0, false
	}
	return reportHash(rep), true
}

// batchReports hashes each item's report in a /v1/analyze/batch response
// into out; an item that carries an error or no report gets hash 0.
func batchReports(body []byte, buf *bytes.Buffer, out []uint64) bool {
	buf.Reset()
	if json.Compact(buf, body) != nil {
		return false
	}
	items := elems(field(buf.Bytes(), "results"))
	if len(items) != len(out) {
		return false
	}
	for i, it := range items {
		out[i] = 0
		if field(it, "errorCode") != nil {
			continue
		}
		if rep := field(it, "report"); len(rep) > 0 && rep[0] == '{' {
			out[i] = reportHash(rep)
		}
	}
	return true
}

// field returns the value of key in the compact JSON object obj, or nil.
func field(obj []byte, key string) []byte {
	if len(obj) < 2 || obj[0] != '{' {
		return nil
	}
	for i := 1; i < len(obj) && obj[i] == '"'; {
		kEnd := skipValue(obj, i)
		k := obj[i+1 : kEnd-1]
		vStart := kEnd + 1 // past ':'
		vEnd := skipValue(obj, vStart)
		if string(k) == key {
			return obj[vStart:vEnd]
		}
		i = vEnd + 1 // past ','
	}
	return nil
}

// elems splits a compact JSON array into its elements.
func elems(arr []byte) [][]byte {
	if len(arr) < 2 || arr[0] != '[' {
		return nil
	}
	var out [][]byte
	for i := 1; i < len(arr)-1; {
		end := skipValue(arr, i)
		out = append(out, arr[i:end])
		i = end + 1
	}
	return out
}

// skipValue returns the index just past the JSON value starting at b[i].
// b must be valid compact JSON.
func skipValue(b []byte, i int) int {
	if i >= len(b) {
		return len(b)
	}
	switch b[i] {
	case '"':
		for i++; i < len(b); i++ {
			switch b[i] {
			case '\\':
				i++
			case '"':
				return i + 1
			}
		}
		return len(b)
	case '{', '[':
		depth := 0
		for i < len(b) {
			switch b[i] {
			case '"':
				i = skipValue(b, i)
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					return i + 1
				}
			}
			i++
		}
		return len(b)
	default:
		for i < len(b) && b[i] != ',' && b[i] != '}' && b[i] != ']' {
			i++
		}
		return i
	}
}

// expect is the oracle's answer for one progKey.
type expect struct {
	Hash         uint64
	Size         int // compact report bytes
	DeadlockFree bool
	Anomalous    bool
	Rendezvous   int
	// Bad names why the oracle itself is wrong for this key (a soundness
	// or pinned-family failure); every request that used it fails.
	Bad string
}

// libraryOptions maps wire options onto library options the way the
// service documents them; the oracle runs the library directly.
func libraryOptions(o service.WireOptions) (siwa.Options, error) {
	opt := siwa.Options{
		AllAlgorithms: o.AllAlgorithms,
		Constraint4:   o.Constraint4,
		Enumerate:     o.Enumerate,
		FIFO:          o.FIFO,
		Exact:         o.Exact,
		Limits:        siwa.DefaultLimits(),
		Parallelism:   1,
	}
	if o.Algorithm != "" {
		a, ok := siwa.AlgorithmByName(o.Algorithm)
		if !ok {
			return opt, fmt.Errorf("unknown algorithm %q", o.Algorithm)
		}
		opt.Algorithm = a
	}
	return opt, nil
}

// oracle computes the expected report of every key in need, outside all
// timing, then checks soundness on a seeded one-in-ten sample of the
// distinct sources against the exact explorer and pins the answers the
// families are known to have. It returns one failure line per problem.
func oracle(in *inputs, need []int32, seed int64) (map[int32]*expect, []string) {
	out := make(map[int32]*expect, len(need))
	for _, k := range need {
		out[k] = &expect{}
	}
	var mu sync.Mutex
	var failures []string
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	parallel(need, func(k int32) {
		e, pk := out[k], in.Keys[k]
		opt, err := libraryOptions(pk.Opts)
		if err != nil {
			e.Bad = err.Error()
			fail("key %d: %v", k, err)
			return
		}
		rep, err := siwa.AnalyzeSource(pk.Source, opt)
		if err != nil {
			e.Bad = err.Error()
			fail("key %d (%s): oracle analysis failed: %v", k, pk.Family, err)
			return
		}
		jr := rep.JSONReport()
		b, err := json.Marshal(jr)
		if err != nil {
			e.Bad = err.Error()
			fail("key %d: %v", k, err)
			return
		}
		e.Hash, e.Size = reportHash(b), len(b)
		e.DeadlockFree, e.Anomalous = jr.DeadlockFree, !jr.DeadlockFree || !jr.StallFree
		e.Rendezvous = jr.RendezvousNodes
		if msg := pinned(pk, jr.DeadlockFree); msg != "" {
			e.Bad = msg
			fail("key %d (%s, %+v): %s", k, pk.Family, pk.Opts, msg)
		}
	})

	// Soundness: a certificate on a program the exact explorer can
	// deadlock is wrong, whatever the detector.
	bySource := map[string][]int32{}
	for _, k := range need {
		bySource[in.Keys[k].Source] = append(bySource[in.Keys[k].Source], k)
	}
	var sample []string
	for src := range bySource {
		h := sha256.Sum256([]byte(fmt.Sprintf("%d\x00%s", seed, src)))
		if h[0]%10 == 0 {
			sample = append(sample, src)
		}
	}
	sort.Strings(sample)
	parallel(sample, func(src string) {
		prog, err := siwa.Parse(src)
		if err != nil {
			return // the report comparison already fails every use
		}
		res, err := waves.ExploreProgram(prog, waves.Options{MaxStates: 1 << 14})
		if err != nil || res.Truncated || !res.Deadlock {
			return
		}
		for _, k := range bySource[src] {
			if e := out[k]; e.DeadlockFree {
				e.Bad = "unsound: certified deadlock-free, exact explorer deadlocks"
				fail("key %d (%s, %+v): %s", k, in.Keys[k].Family, in.Keys[k].Opts, e.Bad)
			}
		}
	})
	sort.Strings(failures)
	return out, failures
}

// pinned checks the answers the families are known to have: Ring
// deadlocks, so no detector may certify it; Pipeline, ClientServer and
// RingBroken are deadlock-free and the pairs detector certifies them.
func pinned(pk progKey, deadlockFree bool) string {
	switch {
	case pk.Family == famRing && deadlockFree:
		return "Ring certified deadlock-free"
	case (pk.Family == famPipeline || pk.Family == famClientServer || pk.Family == famRingBroken) &&
		pk.Opts == (service.WireOptions{Algorithm: "pairs"}) && !deadlockFree:
		return pk.Family.String() + " not certified under pairs"
	}
	return ""
}

// parallel runs fn over items on GOMAXPROCS goroutines and waits.
func parallel[T any](items []T, fn func(T)) {
	work := make(chan T)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				fn(it)
			}
		}()
	}
	for _, it := range items {
		work <- it
	}
	close(work)
	wg.Wait()
}
