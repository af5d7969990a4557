package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/memo"
)

// ringPoint is one virtual node: a position on the hash circle owned by a
// backend index.
type ringPoint struct {
	hash    uint64
	backend int
}

// Ring is a consistent-hash ring over a fixed backend list. Each backend
// contributes vnodes virtual points, hashed from its name, so ownership
// is deterministic across processes and restarts: two gateways configured
// with the same backend names route every digest identically. Membership
// health is deliberately not the ring's business — the ring is immutable,
// and callers walk Candidates to skip unhealthy backends, which yields
// the classic consistent-hash rebalance: when a backend dies, each of its
// keys moves to that key's own clockwise successor, and keys owned by
// healthy backends do not move at all.
//
// Keys are memo.SourceDigest values: the content address the replica's
// cache keys stage artifacts on (report keys fold the options in on
// top), so every option-variant of one program goes to the replica that
// already holds its results.
type Ring struct {
	names  []string
	points []ringPoint
}

// NewRing builds the ring for the given backend names with vnodes virtual
// points per backend (vnodes < 1 is raised to 1).
func NewRing(names []string, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	r := &Ring{
		names:  append([]string(nil), names...),
		points: make([]ringPoint, 0, len(names)*vnodes),
	}
	for bi, name := range names {
		for v := 0; v < vnodes; v++ {
			h := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", name, v)))
			r.points = append(r.points, ringPoint{
				hash:    binary.BigEndian.Uint64(h[:8]),
				backend: bi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full 64-bit collision between different backends' vnode
		// hashes is astronomically unlikely; break the tie by name so
		// ordering stays deterministic anyway.
		return r.points[i].backend < r.points[j].backend
	})
	return r
}

// Backends reports how many backends the ring spans.
func (r *Ring) Backends() int { return len(r.names) }

// start returns the index into points where the clockwise walk for d
// begins: the first point at or after the digest's position, wrapping.
func (r *Ring) start(d memo.Digest) int {
	h := binary.BigEndian.Uint64(d[:8])
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the backend index that owns d when every backend is
// eligible.
func (r *Ring) Owner(d memo.Digest) int { return r.points[r.start(d)].backend }

// Candidates returns every backend index exactly once, ordered by the
// clockwise walk from d's ring position: Candidates(d)[0] is the owner,
// and when the first k candidates are dead, Candidates(d)[k] is exactly
// where consistent hashing moves the key. Callers take the first eligible
// entry.
func (r *Ring) Candidates(d memo.Digest) []int {
	out := make([]int, 0, len(r.names))
	seen := make([]bool, len(r.names))
	start := r.start(d)
	for i := 0; i < len(r.points) && len(out) < len(r.names); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, p.backend)
		}
	}
	return out
}

// Ownership reports the fraction of the 64-bit hash keyspace each backend
// owns (summing to 1). Exported on /metrics so an operator can see a
// pathological vnode layout instead of inferring it from load skew.
func (r *Ring) Ownership() []float64 {
	own := make([]float64, len(r.names))
	if len(r.points) == 1 {
		own[r.points[0].backend] = 1
		return own
	}
	const whole = float64(1<<63) * 2 // 2^64
	for i, p := range r.points {
		// The arc (previous point, p] lands on p's backend; the i==0 arc
		// wraps past zero, which uint64 subtraction handles for free.
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		own[p.backend] += float64(p.hash-prev) / whole
	}
	return own
}
