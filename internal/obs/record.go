package obs

import (
	"encoding/binary"
	"sync"
	"time"
)

// A retained trace is kept as one compact record instead of the live
// span tree: the ended tree in preorder, each span encoded as
//
//	name, span id (8 bytes), parent id (8 bytes), duration (ns),
//	counter count, then key and value per counter,
//	attr count, then key and value per attr,
//	child count
//
// where a string is its uvarint length and bytes, the duration and the
// counter values are varints, and the counts are uvarints. The record
// holds exactly what Span.JSON projects: no per-span start time (the
// root's is on the ExportedTrace), and the trace id once, on the
// ExportedTrace. It is one pointer-free byte slice, so the GC never scans
// it, where the tree it replaces costs the GC a mark per span, map and
// string on every cycle.

// recordBuf is a pooled scratch buffer for encoding one record.
type recordBuf struct{ b []byte }

var recordPool = sync.Pool{New: func() any { return new(recordBuf) }}

// maxPooledRecordBytes caps what a returned scratch buffer may retain: one
// giant trace must not pin its buffer inside the pool.
const maxPooledRecordBytes = 1 << 20

// encodeRecord returns the exact-size record of the tree rooted at s and
// its span count. The tree must be ended: its writers are joined.
func encodeRecord(s *Span) (rec []byte, spans int) {
	buf := recordPool.Get().(*recordBuf)
	buf.b, spans = appendSpan(buf.b[:0], s)
	rec = make([]byte, len(buf.b))
	copy(rec, buf.b)
	if cap(buf.b) <= maxPooledRecordBytes {
		recordPool.Put(buf)
	}
	return rec, spans
}

// appendSpan appends the preorder encoding of s and its descendants,
// returning the extended buffer and the number of spans written.
func appendSpan(dst []byte, s *Span) ([]byte, int) {
	dst = appendString(dst, s.Name)
	dst = append(dst, s.ID[:]...)
	dst = append(dst, s.ParentID[:]...)
	dst = binary.AppendVarint(dst, int64(s.Dur))
	dst = binary.AppendUvarint(dst, uint64(len(s.counters)))
	for k, v := range s.counters {
		dst = appendString(dst, k)
		dst = binary.AppendVarint(dst, v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.attrs)))
	for k, v := range s.attrs {
		dst = appendString(dst, k)
		dst = appendString(dst, v)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Children)))
	spans := 1
	for _, c := range s.Children {
		var n int
		dst, n = appendSpan(dst, c)
		spans += n
	}
	return dst, spans
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodeRecord rebuilds the projection Span.JSON returns for the encoded
// tree. traceID is the tree's trace id in wire form; like Span.JSON, the
// top span carries it unless it is the zero id.
func decodeRecord(rec []byte, traceID string) *SpanJSON {
	d := recordDecoder{b: rec}
	root := d.span()
	if traceID != zeroTraceID {
		root.TraceID = traceID
	}
	return root
}

var zeroTraceID = TraceID{}.String()

// recordDecoder reads a record front to back. Records are only ever
// produced by appendSpan in this process, so a malformed one is a bug and
// panics on the first out-of-range read.
type recordDecoder struct{ b []byte }

func (d *recordDecoder) span() *SpanJSON {
	out := &SpanJSON{Name: d.str()}
	if id := d.spanID(); !id.IsZero() {
		out.SpanID = id.String()
	}
	if id := d.spanID(); !id.IsZero() {
		out.ParentSpanID = id.String()
	}
	out.DurationMs = float64(time.Duration(d.varint())) / float64(time.Millisecond)
	if n := d.uvarint(); n > 0 {
		out.Counters = make(map[string]int64, n)
		for ; n > 0; n-- {
			k := d.str()
			out.Counters[k] = d.varint()
		}
	}
	if n := d.uvarint(); n > 0 {
		out.Attrs = make(map[string]string, n)
		for ; n > 0; n-- {
			k := d.str()
			out.Attrs[k] = d.str()
		}
	}
	if n := d.uvarint(); n > 0 {
		out.Children = make([]*SpanJSON, n)
		for i := range out.Children {
			out.Children[i] = d.span()
		}
	}
	return out
}

func (d *recordDecoder) spanID() SpanID {
	var id SpanID
	d.b = d.b[copy(id[:], d.b[:len(id)]):]
	return id
}

func (d *recordDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		panic("obs: malformed trace record")
	}
	d.b = d.b[n:]
	return v
}

func (d *recordDecoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		panic("obs: malformed trace record")
	}
	d.b = d.b[n:]
	return v
}

func (d *recordDecoder) str() string {
	n := d.uvarint()
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}
