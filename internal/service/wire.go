package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The wire format of both tiers lives here. Every body a replica or the
// gateway writes is compact JSON followed by one newline, staged in a
// pooled buffer so Content-Length is known before the status line goes
// out. The analyze and batch success bodies render themselves by
// appending around report bytes that were marshalled once, when the
// analysis ran (and that the replica's cache stores under "rp:"): a
// cache hit, a batch item or a gateway merge splices those bytes instead
// of re-encoding them. Everything else, error bodies included, goes
// through json.Encoder.

// jsonAppender is implemented by bodies that render themselves without
// reflection. AppendJSON must append exactly what json.Marshal produces
// for the value, plus the newline json.Encoder adds.
type jsonAppender interface {
	AppendJSON(dst []byte) []byte
}

// DecodeJSON decodes a request body into v: exactly one JSON value, no
// field v does not declare, and nothing but whitespace after the value.
// Both tiers decode request bodies through it, so a body one tier
// rejects the other rejects too.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("unexpected data after the JSON value")
	default:
		return err
	}
}

// wireBuf is a pooled response buffer; Write lets json.Encoder fill it.
type wireBuf struct{ b []byte }

func (w *wireBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var wirePool = sync.Pool{New: func() any { return new(wireBuf) }}

// maxPooledBufBytes caps what a returned buffer may retain: one giant
// batch response must not pin megabytes inside the pool forever.
const maxPooledBufBytes = 1 << 20

// WriteJSON writes v as a compact JSON body with the given status and a
// Content-Length header. Values that implement AppendJSON (the analyze
// and batch responses) render themselves; anything else goes through
// json.Encoder. Both tiers write every JSON body through here.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := wirePool.Get().(*wireBuf)
	buf.b = buf.b[:0]
	if a, ok := v.(jsonAppender); ok {
		buf.b = a.AppendJSON(buf.b)
	} else if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Encoding failed before anything was written: the connection is
		// still clean, so a plain 500 is deliverable.
		wirePool.Put(buf)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":{"code":%q,"message":"response encoding failed"}}`, CodeInternal)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(buf.b)))
	w.WriteHeader(status)
	w.Write(buf.b)
	if cap(buf.b) <= maxPooledBufBytes {
		wirePool.Put(buf)
	}
}

// AppendJSON appends the response as json.Marshal renders it, plus a
// newline. Report is spliced verbatim: it must already be compact JSON
// (nil renders as null). ElapsedMs must be finite.
func (r AnalyzeResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"report":`...)
	if len(r.Report) == 0 {
		dst = append(dst, "null"...)
	}
	dst = append(dst, r.Report...)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, r.Cached)
	dst = append(dst, `,"elapsedMs":`...)
	dst = appendFloat(dst, r.ElapsedMs)
	if r.Trace != nil {
		// Traces ride only on traced cache misses, where a reflective
		// encode costs nothing next to the analysis that produced them.
		if b, err := json.Marshal(r.Trace); err == nil {
			dst = append(dst, `,"trace":`...)
			dst = append(dst, b...)
		}
	}
	return append(dst, "}\n"...)
}

// AppendJSON appends the response as json.Marshal renders it, plus a
// newline. Each item's Report is spliced verbatim, as in
// AnalyzeResponse.AppendJSON.
func (r BatchResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"results":`...)
	if r.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = r.Results[i].appendJSON(dst)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"elapsedMs":`...)
	dst = appendFloat(dst, r.ElapsedMs)
	return append(dst, "}\n"...)
}

func (r *BatchResult) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	if r.ID != "" {
		dst = append(dst, `"id":`...)
		dst = appendString(dst, r.ID)
		dst = append(dst, ',')
	}
	if len(r.Report) > 0 {
		dst = append(dst, `"report":`...)
		dst = append(dst, r.Report...)
		dst = append(dst, ',')
	}
	dst = append(dst, `"cached":`...)
	dst = strconv.AppendBool(dst, r.Cached)
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, r.Error)
	}
	if r.ErrorCode != 0 {
		dst = append(dst, `,"errorCode":`...)
		dst = appendString(dst, r.ErrorCode.String())
	}
	return append(dst, '}')
}

// appendFloat renders f as encoding/json does: shortest representation,
// exponent form outside [1e-6, 1e21), and no leading zero in a negative
// two-digit exponent.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendString renders s as a JSON string. Plain ASCII (ids, error
// codes) is copied as is; anything encoding/json would escape goes
// through it, so escaping rules live in one place.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
