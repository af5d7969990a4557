package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"net/http"
)

// TraceID is the 128-bit identity shared by every span of one distributed
// trace, across processes. The zero value means "no trace".
type TraceID [16]byte

// SpanID is the 64-bit identity of one span within a trace. The zero
// value means "no span" (an unparented root).
type SpanID [8]byte

// IsZero reports whether the id is the all-zero invalid id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as 32 lowercase hex digits (the W3C wire form).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the id is the all-zero invalid id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// NewTraceID mints a random non-zero trace id. The generator is
// math/rand/v2's shared source: trace ids need uniqueness, not
// unpredictability, and the hot path cannot afford a syscall per span.
func NewTraceID() TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], rand.Uint64())
	binary.BigEndian.PutUint64(t[8:], rand.Uint64())
	if t.IsZero() {
		t[15] = 1 // the W3C all-zero id is invalid
	}
	return t
}

// NewSpanID mints a random non-zero span id.
func NewSpanID() SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], rand.Uint64())
	if s.IsZero() {
		s[7] = 1
	}
	return s
}

// TraceparentHeader is the W3C Trace Context header name (lowercase on
// the wire; net/http canonicalizes lookups either way).
const TraceparentHeader = "traceparent"

// FormatTraceparent renders a version-00 W3C traceparent value:
// "00-<32 hex trace id>-<16 hex span id>-<flags>", flags 01 when the
// trace is sampled (retain downstream) and 00 otherwise.
func FormatTraceparent(t TraceID, s SpanID, sampled bool) string {
	// Hand-assembled to keep the proxy hot path allocation-lean: one
	// 55-byte string, no fmt.
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], t[:])
	b[35] = '-'
	hex.Encode(b[36:52], s[:])
	b[52], b[53], b[54] = '-', '0', '0'
	if sampled {
		b[54] = '1'
	}
	return string(b[:])
}

// ParseTraceparent validates and decodes a traceparent value. It accepts
// exactly the version-00 grammar: 4 dash-separated fields, 2+32+16+2
// lowercase hex digits, non-zero trace and span ids. Anything else
// reports ok=false and the caller starts a fresh root — a malformed
// header is never an error, per the W3C spec.
func ParseTraceparent(v string) (t TraceID, s SpanID, sampled, ok bool) {
	if len(v) != 55 || v[0] != '0' || v[1] != '0' || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return t, s, false, false
	}
	// The spec mandates lowercase hex; hex.Decode alone would also accept
	// uppercase, so check the alphabet first.
	if !isLowerHex(v[3:35]) || !isLowerHex(v[36:52]) || !isLowerHex(v[53:55]) {
		return t, s, false, false
	}
	if _, err := hex.Decode(t[:], []byte(v[3:35])); err != nil {
		return TraceID{}, s, false, false
	}
	if _, err := hex.Decode(s[:], []byte(v[36:52])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	flags := v[53:55]
	if t.IsZero() || s.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	return t, s, flags == "01", true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// InjectTraceparent stamps the traceparent header on an outbound request.
func InjectTraceparent(h http.Header, t TraceID, s SpanID, sampled bool) {
	h.Set(TraceparentHeader, FormatTraceparent(t, s, sampled))
}

// ExtractTraceparent reads and validates an inbound traceparent header.
func ExtractTraceparent(h http.Header) (t TraceID, s SpanID, sampled, ok bool) {
	return ParseTraceparent(h.Get(TraceparentHeader))
}

// TraceHandle is one request's live trace state, carried through the
// request context so handlers, proxies, and the analysis pipeline all
// record into the same tree. Sampled is the head decision made where the
// trace was born (and propagated via the traceparent flags): it decides
// retention only, since every request records its spans; slow, degraded
// or errored requests are retained regardless.
type TraceHandle struct {
	Tracer  *Tracer
	Root    *Span
	Sampled bool
}

type traceHandleKey struct{}

// ContextWithTrace attaches the handle to the context.
func ContextWithTrace(ctx context.Context, h *TraceHandle) context.Context {
	return context.WithValue(ctx, traceHandleKey{}, h)
}

// TraceFromContext returns the request's trace handle, or nil outside a
// traced request. All TraceHandle methods tolerate a nil receiver.
func TraceFromContext(ctx context.Context) *TraceHandle {
	h, _ := ctx.Value(traceHandleKey{}).(*TraceHandle)
	return h
}

// RootSpan returns the request root span (nil-safe).
func (h *TraceHandle) RootSpan() *Span {
	if h == nil {
		return nil
	}
	return h.Root
}

// TraceIDString returns the trace id in wire form, or "" when untraced.
func (h *TraceHandle) TraceIDString() string {
	if h == nil || h.Root == nil {
		return ""
	}
	return h.Root.TraceID.String()
}

// Traceparent builds the header value that names sp (or the root when sp
// is nil) as the parent of the next downstream span. Returns "" when
// there is nothing to propagate.
func (h *TraceHandle) Traceparent(sp *Span) string {
	if h == nil {
		return ""
	}
	if sp == nil {
		sp = h.Root
	}
	if sp == nil || sp.TraceID.IsZero() {
		return ""
	}
	return FormatTraceparent(sp.TraceID, sp.ID, h.Sampled)
}
