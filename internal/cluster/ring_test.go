package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/memo"
)

func testDigests(n int) []memo.Digest {
	out := make([]memo.Digest, n)
	for i := range out {
		out[i] = memo.SourceDigest(fmt.Sprintf("program %d", i))
	}
	return out
}

// TestRingDeterministic pins the property the whole design leans on: two
// independently built rings over the same backend names route every
// digest identically, regardless of list construction.
func TestRingDeterministic(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := NewRing(names, 64)
	r2 := NewRing(names, 64)
	for _, d := range testDigests(500) {
		if r1.Owner(d) != r2.Owner(d) {
			t.Fatalf("rings disagree on %x", d[:4])
		}
		c1, c2 := r1.Candidates(d), r2.Candidates(d)
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("candidate order differs on %x: %v vs %v", d[:4], c1, c2)
			}
		}
	}
}

// TestRingCandidatesCoverAllBackends checks the failover walk: every
// backend appears exactly once, led by the owner.
func TestRingCandidatesCoverAllBackends(t *testing.T) {
	r := NewRing([]string{"a", "b", "c", "d"}, 32)
	for _, d := range testDigests(200) {
		c := r.Candidates(d)
		if len(c) != 4 {
			t.Fatalf("candidates=%v", c)
		}
		if c[0] != r.Owner(d) {
			t.Fatalf("first candidate %d is not the owner %d", c[0], r.Owner(d))
		}
		seen := map[int]bool{}
		for _, b := range c {
			if seen[b] {
				t.Fatalf("backend %d listed twice: %v", b, c)
			}
			seen[b] = true
		}
	}
}

// TestRingRebalanceMovesOnlyOrphans is the consistent-hashing contract:
// simulating one backend's death by skipping it in the candidate walk
// must remap exactly the digests that backend owned — every other
// digest keeps its owner, so surviving replicas keep their cache hits.
func TestRingRebalanceMovesOnlyOrphans(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := NewRing(names, 64)
	const dead = 1
	moved := 0
	for _, d := range testDigests(2000) {
		before := r.Owner(d)
		after := -1
		for _, ci := range r.Candidates(d) {
			if ci != dead {
				after = ci
				break
			}
		}
		if before != dead && after != before {
			t.Fatalf("digest %x moved from live backend %d to %d", d[:4], before, after)
		}
		if before == dead {
			if after == dead {
				t.Fatalf("digest %x still routed to the dead backend", d[:4])
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("dead backend owned nothing; the test exercised no rebalance")
	}
}

// TestRingDistribution bounds the vnode-smoothed load split: with 64
// vnodes each of 3 backends should own a sane share of both the keyspace
// measure and an empirical digest sample.
func TestRingDistribution(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := NewRing(names, 64)
	own := r.Ownership()
	total := 0.0
	for i, o := range own {
		total += o
		if o < 0.10 || o > 0.60 {
			t.Errorf("backend %d owns %.3f of the keyspace; vnode layout is pathological", i, o)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("ownership sums to %v, want 1", total)
	}
	counts := make([]int, len(names))
	sample := testDigests(3000)
	for _, d := range sample {
		counts[r.Owner(d)]++
	}
	for i, c := range counts {
		share := float64(c) / float64(len(sample))
		if share < 0.10 || share > 0.60 {
			t.Errorf("backend %d drew %.3f of sampled digests", i, share)
		}
		// The empirical share should roughly track the measured ownership.
		if math.Abs(share-own[i]) > 0.10 {
			t.Errorf("backend %d: sampled %.3f vs owned %.3f", i, share, own[i])
		}
	}
}

// TestRingOrderIndependent reorders the config list: ring points hash
// backend names, so digests keep their owner (by name) no matter how the
// operator orders -backends.
func TestRingOrderIndependent(t *testing.T) {
	a := []string{"http://a:1", "http://b:1", "http://c:1"}
	b := []string{"http://c:1", "http://a:1", "http://b:1"}
	ra, rb := NewRing(a, 64), NewRing(b, 64)
	for _, d := range testDigests(300) {
		if a[ra.Owner(d)] != b[rb.Owner(d)] {
			t.Fatalf("owner changed with config order for %x", d[:4])
		}
	}
}

func TestRingSingleBackend(t *testing.T) {
	r := NewRing([]string{"solo"}, 1)
	if own := r.Ownership(); own[0] != 1 {
		t.Fatalf("ownership=%v", own)
	}
	for _, d := range testDigests(10) {
		if r.Owner(d) != 0 || len(r.Candidates(d)) != 1 {
			t.Fatal("single backend must own everything")
		}
	}
}
