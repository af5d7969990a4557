// Package memo is the replica's one cache: a content-addressed,
// byte-budgeted LRU over expensive pipeline artifacts and the reports
// rendered from them, with a built-in compute single-flight so N
// concurrent misses on one key build the artifact exactly once. The
// cluster gateway keeps its report cache for exact request repeats in
// the same type.
//
// The paper's pipeline is strictly staged — parse → Lemma-1 unroll →
// sync graph → CLG + ordering tables → detector sweep — and everything
// up to the detector sweep depends only on the program source, not on
// the requested algorithm. The facade (siwa.AnalyzeSourceContext) keys
// those shared-prefix artifacts on SHA-256(source) here, so asking for a
// second algorithm on a warm source pays only the per-algorithm suffix.
//
// Contract: cached entries are immutable after construction. The cache
// never copies values — a Get hands out the same pointer to any number
// of concurrent readers — so an entry must be safe for concurrent
// read-only use (core.Analyzer is, by PR 4's read-only-after-build
// guarantee). Eviction only drops the cache's reference: analyses that
// already hold an entry keep using it safely while the GC keeps it
// alive, so a tiny budget can never corrupt a live analysis.
package memo

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"sync"
)

// Digest is the SHA-256 content address of one program source.
type Digest [sha256.Size]byte

// SourceDigest hashes a program source.
func SourceDigest(src string) Digest { return sha256.Sum256([]byte(src)) }

// String renders the short (8-byte) hex form used in logs and span attrs.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:8]) }

// Key returns the full-strength digest as a raw byte string for cache
// keys, where the short display form's 64-bit prefix would be too little
// margin against collisions on a long-lived cache.
func (d Digest) Key() string { return string(d[:]) }

// Entry is one cached artifact. SizeBytes is the artifact's approximate
// resident footprint; the cache charges it against the byte budget at
// admission, so costs are counted in memory actually held, not entry
// counts. Estimates only steer eviction — they need to be proportional,
// not exact.
type Entry interface {
	SizeBytes() int64
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Entries   int
	Bytes     int64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Builds counts build functions actually executed: with single-flight
	// collapsing duplicate misses, Builds never exceeds the number of
	// distinct keys built (while their entries stay resident).
	Builds uint64
}

// Cache is the byte-budgeted LRU with per-key compute single-flight.
// All methods are safe for concurrent use; a nil *Cache never hits and
// builds every request fresh, so a disabled cache needs no call-site
// branching.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	// flights dedups concurrent builds per key. A flight is removed when
	// its build completes (success or failure), so a failed build is
	// retried by the next caller instead of being cached.
	flights map[string]*flight

	hits      uint64
	misses    uint64
	evictions uint64
	builds    uint64
}

type flight struct {
	done chan struct{}
	val  Entry
	err  error
}

type entryNode struct {
	key  string
	val  Entry
	size int64
}

// New returns a cache admitting at most maxBytes of artifact footprint
// (minimum 1; practical budgets are tens of MiB).
func New(maxBytes int64) *Cache {
	if maxBytes < 1 {
		maxBytes = 1
	}
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		flights:  make(map[string]*flight),
	}
}

// Get returns the cached entry for key, recording a hit or miss.
func (c *Cache) Get(key string) (Entry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entryNode).val, true
}

// Do returns the entry for key, building it at most once across
// concurrent callers: the first caller on a cold key runs build while
// followers block on the same flight and share the result (or error).
// Successful builds are admitted into the LRU; failures are not cached,
// so the next request retries. built reports whether this call ran the
// build function itself — the leader's stages execute for real (and
// trace for real), followers and warm hits reuse.
func (c *Cache) Do(key string, build func() (Entry, error)) (val Entry, built bool, err error) {
	if c == nil {
		e, err := build()
		return e, true, err
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		v := el.Value.(*entryNode).val
		c.mu.Unlock()
		return v, false, nil
	}
	c.misses++
	if f, ok := c.flights[key]; ok {
		// A build for this key is in flight: wait for it instead of
		// duplicating the work.
		c.mu.Unlock()
		<-f.done
		return f.val, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.builds++
	c.mu.Unlock()

	defer func() {
		// A panicking build must not strand followers on the flight
		// forever: publish a nil result and re-panic.
		if r := recover(); r != nil {
			f.err = fmt.Errorf("memo: build for %q panicked", key)
			c.finish(key, f, nil)
			panic(r)
		}
	}()
	f.val, f.err = build()
	var admit Entry
	if f.err == nil {
		admit = f.val
	}
	c.finish(key, f, admit)
	return f.val, true, f.err
}

// finish closes out a flight: admits the built entry (when non-nil),
// removes the flight so later misses start fresh, and wakes followers.
func (c *Cache) finish(key string, f *flight, admit Entry) {
	c.mu.Lock()
	delete(c.flights, key)
	if admit != nil {
		c.put(key, admit)
	}
	c.mu.Unlock()
	close(f.done)
}

// Put stores an entry under key (admission only; misuse-tolerant).
func (c *Cache) Put(key string, val Entry) {
	if c == nil || val == nil {
		return
	}
	c.mu.Lock()
	c.put(key, val)
	c.mu.Unlock()
}

// put admits val under the byte budget. Caller holds c.mu. An entry
// larger than the whole budget is not admitted at all — callers still
// get the value they built, it just is not retained — so one huge
// program cannot wipe the working set of everyone else.
func (c *Cache) put(key string, val Entry) {
	size := val.SizeBytes()
	if size < 1 {
		size = 1
	}
	if el, ok := c.items[key]; ok {
		n := el.Value.(*entryNode)
		c.bytes += size - n.size
		n.val, n.size = val, size
		c.ll.MoveToFront(el)
		c.evictOver()
		return
	}
	if size > c.maxBytes {
		return
	}
	c.items[key] = c.ll.PushFront(&entryNode{key: key, val: val, size: size})
	c.bytes += size
	c.evictOver()
}

// evictOver drops least-recently-used entries until the budget holds.
// Caller holds c.mu.
func (c *Cache) evictOver() {
	for c.bytes > c.maxBytes && c.ll.Len() > 0 {
		oldest := c.ll.Back()
		n := oldest.Value.(*entryNode)
		c.ll.Remove(oldest)
		delete(c.items, n.key)
		c.bytes -= n.size
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Builds:    c.builds,
	}
}

// Len reports the current entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
