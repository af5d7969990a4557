// Package fixtures pins the pairup analyzer's acquire/release shapes:
// pooled buffers (Get/Put) and spans (Start|StartChild/End). The types are
// local stand-ins — pairup matches pairs by type and method name, never by
// package path — so the fixtures stay frozen while the real types evolve.
package fixtures

import "errors"

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
