// Package fixtures reproduces this repository's real resource-leak bug
// history for the pairup analyzer. The types are local stand-ins — pairup
// matches pairs by type and method name, never by package path — so the
// gateway's breaker probe-slot leak stays pinned here in its pre-fix
// shape.
package fixtures

import "errors"

// Breaker stands in for the gateway circuit breaker: every Acquire must
// be resolved by Success, Fail, or Release.
type Breaker struct{ open bool }

func (b *Breaker) Acquire() bool { return !b.open }
func (b *Breaker) Release()      {}
func (b *Breaker) Success()      {}
func (b *Breaker) Fail()         {}

type backend struct {
	name    string
	breaker *Breaker
}

// probeSlotLeak is the pre-fix PR-5 breaker bug: the failure path returns
// without resolving the acquired probe slot, so a half-open breaker stays
// half-open forever and the backend is never probed again.
func probeSlotLeak(b *backend, fail bool) error {
	if !b.breaker.Acquire() {
		return errors.New("probe lost")
	}
	if fail {
		return errors.New("upstream down") // want `breaker probe slot acquired at line \d+ is not released on this path`
	}
	b.breaker.Success()
	return nil
}

// probeSlotResolved is the post-fix shape: every path judges the probe.
func probeSlotResolved(b *backend, fail bool) error {
	if !b.breaker.Acquire() {
		return errors.New("probe lost")
	}
	if fail {
		b.breaker.Fail()
		return errors.New("upstream down")
	}
	b.breaker.Success()
	return nil
}

// probeSlotHandedOff transfers ownership: the backend goes to a resolver,
// exactly like the real attemptOne handing its backend to send().
func probeSlotHandedOff(b *backend) error {
	if !b.breaker.Acquire() {
		return errors.New("probe lost")
	}
	return resolve(b)
}

func resolve(b *backend) error {
	b.breaker.Success()
	return nil
}

// Pool stands in for the sync.Pool Get/Put pairing around pooled buffers.
type Pool struct{ free []*buffer }

type buffer struct{ b []byte }

func (p *Pool) Get() *buffer {
	if n := len(p.free); n > 0 {
		buf := p.free[n-1]
		p.free = p.free[:n-1]
		return buf
	}
	return &buffer{}
}

func (p *Pool) Put(b *buffer) { p.free = append(p.free, b) }

func pooledLeak(p *Pool, huge bool) {
	buf := p.Get()
	if huge {
		return // want `pooled object acquired at line \d+ is not released on this path`
	}
	p.Put(buf)
}

func pooledDeferredPut(p *Pool, n int) int {
	buf := p.Get()
	defer p.Put(buf)
	if n < 0 {
		return 0
	}
	return n
}

type Span struct{ name string }

func (s *Span) StartChild(name string) *Span { return &Span{name: name} }
func (s *Span) End()                         {}

type Tracer struct{}

func (t *Tracer) Start(name string) *Span { return &Span{name: name} }

func spanLeak(root *Span, fail bool) error {
	sp := root.StartChild("stage")
	if fail {
		return errors.New("stage failed") // want `span acquired at line \d+ is not released on this path`
	}
	sp.End()
	return nil
}

func spanDeferredEnd(root *Span) {
	sp := root.StartChild("stage")
	defer sp.End()
}

func spanReturnedToCaller(t *Tracer, bail bool) *Span {
	sp := t.Start("request")
	if bail {
		return nil // want `span acquired at line \d+ is not released on this path`
	}
	return sp
}

// pooledLeakAfterReceiverRead pins the escape rule's shape awareness: the
// pool is the registry, not the owner — reading a field off it must not
// end tracking of the pooled handle.
func pooledLeakAfterReceiverRead(p *Pool, n int) {
	buf := p.Get()
	if n > len(p.free) {
		return // want `pooled object acquired at line \d+ is not released on this path`
	}
	p.Put(buf)
}

// spanEndedBySpawnedGoroutine: a release inside a spawned closure counts.
func spanEndedBySpawnedGoroutine(root *Span) {
	sp := root.StartChild("send")
	go func() {
		defer sp.End()
	}()
}
