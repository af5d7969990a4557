package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

var ctx = context.Background()

// fakeEntry is a test artifact with a declared footprint.
type fakeEntry struct {
	id   int
	size int64
}

func (f *fakeEntry) SizeBytes() int64 { return f.size }

// charge is what the cache charges against its budget for an entry of
// the given footprint under key.
func charge(key string, size int64) int64 { return size + entryOverhead + int64(len(key)) }

func TestSourceDigestStable(t *testing.T) {
	a, b := SourceDigest("task t is begin end"), SourceDigest("task t is begin end")
	if a != b {
		t.Fatal("same source hashed to different digests")
	}
	if a == SourceDigest("task u is begin end") {
		t.Fatal("different sources collided")
	}
	if len(a.String()) != 16 {
		t.Fatalf("short hex form = %q, want 16 hex chars", a.String())
	}
}

func TestNilCacheNeverHits(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	built := 0
	v, wasBuilt, err := c.Do(ctx, "k", func() (Entry, error) {
		built++
		return &fakeEntry{1, 8}, nil
	})
	if err != nil || !wasBuilt || built != 1 || v.(*fakeEntry).id != 1 {
		t.Fatalf("nil cache Do: v=%v built=%v err=%v", v, wasBuilt, err)
	}
	c.Put("k", &fakeEntry{2, 8})
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache stored something")
	}
}

func TestByteBudgetEviction(t *testing.T) {
	budget := 2*charge("k0", 40) + 20 // two entries fit, a third does not
	c := New(budget)
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), &fakeEntry{i, 40})
	}
	st := c.Stats()
	if st.Bytes > budget {
		t.Fatalf("bytes %d exceed budget", st.Bytes)
	}
	if st.Entries != 2 || st.Evictions != 2 {
		t.Fatalf("entries=%d evictions=%d, want 2/2", st.Entries, st.Evictions)
	}
	// LRU order: k0 and k1 evicted, k2 and k3 resident.
	if _, ok := c.Get("k0"); ok {
		t.Fatal("k0 survived")
	}
	if _, ok := c.Get("k3"); !ok {
		t.Fatal("k3 evicted")
	}
	// Touch k2, then overflow: k3 (now LRU) goes first.
	if _, ok := c.Get("k2"); !ok {
		t.Fatal("k2 evicted")
	}
	c.Put("k4", &fakeEntry{4, 40})
	if _, ok := c.Get("k3"); ok {
		t.Fatal("k3 survived over more recently used k2")
	}
	if _, ok := c.Get("k2"); !ok {
		t.Fatal("recently-touched k2 was evicted")
	}
}

func TestOversizedEntryNotAdmitted(t *testing.T) {
	c := New(charge("small", 10) + 64)
	c.Put("small", &fakeEntry{0, 10})
	v, built, err := c.Do(ctx, "huge", func() (Entry, error) { return &fakeEntry{1, 1000}, nil })
	if err != nil || !built || v.(*fakeEntry).id != 1 {
		t.Fatalf("oversized build not returned: %v %v %v", v, built, err)
	}
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized entry was admitted")
	}
	if _, ok := c.Get("small"); !ok {
		t.Fatal("oversized entry evicted the working set it never joined")
	}
}

// TestChargeIncludesBookkeeping: each entry is charged its SizeBytes plus
// the cache's own bookkeeping for it (entryOverhead and the key's bytes),
// so Stats().Bytes is the sum of the charges and a budget of exactly k
// charges admits k entries and evicts on the next.
func TestChargeIncludesBookkeeping(t *testing.T) {
	const k = 3
	keys := []string{"src:a", "an:bb", "rp:ccc", "vd:dd"} // the last as long as the first
	var sum int64
	for _, key := range keys[:k] {
		sum += charge(key, 100)
	}
	c := New(sum)
	for i, key := range keys[:k] {
		c.Put(key, &fakeEntry{i, 100})
	}
	if st := c.Stats(); st.Bytes != sum || st.Entries != k || st.Evictions != 0 {
		t.Fatalf("after %d puts: %+v, want bytes=%d entries=%d evictions=0", k, st, sum, k)
	}
	c.Put(keys[k], &fakeEntry{k, 100})
	if st := c.Stats(); st.Evictions != 1 || st.Bytes != sum-charge(keys[0], 100)+charge(keys[k], 100) {
		t.Fatalf("after one more put: %+v, want one eviction of %q", st, keys[0])
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Fatalf("least recently used %q survived", keys[0])
	}
}

func TestPutRefreshAdjustsBytes(t *testing.T) {
	c := New(charge("k", 100))
	c.Put("k", &fakeEntry{0, 30})
	c.Put("k", &fakeEntry{1, 70})
	st := c.Stats()
	if st.Bytes != charge("k", 70) || st.Entries != 1 {
		t.Fatalf("bytes=%d entries=%d after refresh, want %d/1", st.Bytes, st.Entries, charge("k", 70))
	}
	if v, _ := c.Get("k"); v.(*fakeEntry).id != 1 {
		t.Fatal("refresh kept the old value")
	}
}

func TestDoSingleFlight(t *testing.T) {
	c := New(1 << 20)
	var builds atomic.Int64
	gate := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	vals := make([]Entry, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(ctx, "shared", func() (Entry, error) {
				builds.Add(1)
				<-gate // hold every concurrent caller in the miss window
				return &fakeEntry{42, 64}, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for i, v := range vals {
		if v != vals[0] {
			t.Fatalf("caller %d got a different entry pointer", i)
		}
	}
	if st := c.Stats(); st.Builds != 1 || st.Hits+st.Misses != waiters {
		t.Fatalf("stats %+v", st)
	}
}

func TestDoErrorNotCachedAndRetried(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.Do(ctx, "k", func() (Entry, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	v, built, err := c.Do(ctx, "k", func() (Entry, error) { calls++; return &fakeEntry{1, 8}, nil })
	if err != nil || !built || calls != 2 {
		t.Fatalf("retry: v=%v built=%v err=%v calls=%d", v, built, err, calls)
	}
	if _, ok := c.Get("k"); !ok {
		t.Fatal("successful retry not cached")
	}
}

func TestDoPanicReleasesFollowers(t *testing.T) {
	c := New(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	var followerErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer func() { recover() }()
		c.Do(ctx, "k", func() (Entry, error) {
			close(started)
			<-release
			panic("build bug")
		})
	}()
	go func() {
		defer wg.Done()
		<-started
		close(release)
		_, _, followerErr = c.Do(ctx, "k", func() (Entry, error) { return &fakeEntry{9, 8}, nil })
	}()
	wg.Wait()
	// The follower either joined the doomed flight (gets the panic error)
	// or arrived after it was torn down (builds fresh, no error) — it must
	// never hang, and a later call must be able to build.
	if followerErr != nil && !errors.Is(followerErr, ErrLeaderPanicked) {
		t.Fatalf("follower err=%v", followerErr)
	}
	v, _, err := c.Do(ctx, "k", func() (Entry, error) { return &fakeEntry{7, 8}, nil })
	if err != nil || v == nil {
		t.Fatalf("cache unusable after build panic: %v %v", v, err)
	}
}

func TestConcurrentChurnUnderTinyBudget(t *testing.T) {
	// Eviction pressure with concurrent readers: entries handed out stay
	// valid (immutable) even when the cache dropped them. Run with -race.
	budget := 4 * charge("k15", 48)
	c := New(budget)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%16)
				v, _, err := c.Do(ctx, key, func() (Entry, error) {
					return &fakeEntry{i, 48}, nil
				})
				if err != nil || v == nil {
					t.Errorf("worker %d: %v %v", w, v, err)
					return
				}
				_ = v.SizeBytes() // read after possible eviction
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > budget {
		t.Fatalf("budget violated: %+v", st)
	}
}

// TestDoFollowerStopsAtItsOwnContext: a follower whose context ends while
// the leader is still building returns its own ctx.Err() at once, and the
// leader's build is admitted when it completes.
func TestDoFollowerStopsAtItsOwnContext(t *testing.T) {
	c := New(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func() (Entry, error) {
			close(started)
			<-release
			return &fakeEntry{1, 8}, nil
		})
		leader <- err
	}()
	<-started
	fctx, cancel := context.WithCancel(ctx)
	cancel()
	v, built, err := c.Do(fctx, "k", func() (Entry, error) {
		t.Error("follower ran the build")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) || built || v != nil {
		t.Fatalf("follower: v=%v built=%v err=%v, want its own context.Canceled", v, built, err)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if v, ok := c.Get("k"); !ok || v.(*fakeEntry).id != 1 {
		t.Fatalf("leader's entry not admitted: %v %v", v, ok)
	}
	if st := c.Stats(); st.Builds != 1 {
		t.Fatalf("stats %+v, want one build", st)
	}
}

// TestFlightLeaderPanicFreesKey: a panicking leader releases the followers
// already waiting (with ErrLeaderPanicked), its panic reaches its own
// caller, and the next call on the key leads a fresh flight.
func TestFlightLeaderPanicFreesKey(t *testing.T) {
	f := NewFlight[[4]byte, int]()
	key := [4]byte{1, 2, 3, 4}
	started := make(chan struct{})
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		f.Do(ctx, key, func() (int, error) {
			close(started)
			<-release
			panic("leader bug")
		})
	}()
	<-started
	follower := make(chan error, 1)
	go func() {
		_, _, err := f.Do(ctx, key, func() (int, error) { return 2, nil })
		follower <- err
	}()
	close(release)
	if p := <-leaderPanic; p != "leader bug" {
		t.Fatalf("leader recovered %v, want its own panic", p)
	}
	// The follower joined the doomed flight or came after it ended; either
	// way it returns.
	if err := <-follower; err != nil && !errors.Is(err, ErrLeaderPanicked) {
		t.Fatalf("follower err=%v", err)
	}
	v, shared, err := f.Do(ctx, key, func() (int, error) { return 3, nil })
	if v != 3 || shared || err != nil {
		t.Fatalf("after the panic: v=%d shared=%v err=%v, want a fresh flight", v, shared, err)
	}
}
