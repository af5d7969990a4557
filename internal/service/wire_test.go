package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	siwa "repro"
)

// wireStrings are the strings encoding/json must escape, one kind each:
// HTML-significant characters, quotes and backslashes, every control
// character class, invalid UTF-8, and the two JavaScript line separators.
var wireStrings = []string{
	"", "plain", "a<b", "a>b", "a&b", `a"b`, `a\b`, "a\x01b", "<script>&amp;</script>", `say "hi" \ bye`,
	"tab\tnl\nret\rbs\bff\f", "nul\x00unit\x1fdel\x7f", "bad\xffutf8\xc3", "trunc\xe2\x80",
	"ls\u2028ps\u2029", "snow☃ and 🎉", "\ufffd", strings.Repeat("é<", 40),
}

// wireFloats sit on both sides of encoding/json's switch to exponent form
// (below 1e-6 and at 1e21) plus ordinary elapsed times.
var wireFloats = []float64{
	0, 1, 1.25, 0.1, 123.456, 1e-6, 9.99999e-7, 1e-7, 1.5e-10, 1e21, 9.99999e20,
	1.234e22, 1e100, 5e-324, math.MaxFloat64, math.Copysign(0, -1), -2.5, -1e-7, -1e21,
}

func randString(rng *rand.Rand) string {
	if rng.IntN(3) == 0 {
		return wireStrings[rng.IntN(len(wireStrings))]
	}
	var b strings.Builder
	for n := rng.IntN(12); n > 0; n-- {
		b.WriteString(wireStrings[rng.IntN(len(wireStrings))])
	}
	return b.String()
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.IntN(3) {
	case 0:
		return wireFloats[rng.IntN(len(wireFloats))]
	case 1:
		return rng.Float64() * math.Pow(10, float64(rng.IntN(50)-25))
	default:
		return rng.ExpFloat64()
	}
}

// randReport is a compact report the way the replica stores it: the
// bytes json.Marshal produced, here from a tree of awkward strings.
func randReport(t *testing.T, rng *rand.Rand) json.RawMessage {
	v := map[string]any{
		"schemaVersion": 3,
		"label":         randString(rng),
		"witnesses":     []string{randString(rng), randString(rng)},
		"ms":            randFloat(rng),
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func randSpan(rng *rand.Rand, depth int) *siwa.JSONSpan {
	sp := &siwa.JSONSpan{
		Name:       randString(rng),
		DurationMs: randFloat(rng),
		Counters:   map[string]int64{randString(rng): rng.Int64()},
		Attrs:      map[string]string{"k": randString(rng)},
	}
	for i := rng.IntN(3); i > 0 && depth > 0; i-- {
		sp.Children = append(sp.Children, randSpan(rng, depth-1))
	}
	return sp
}

func randBatch(t *testing.T, rng *rand.Rand) BatchResponse {
	var r BatchResponse
	switch rng.IntN(4) {
	case 0: // nil results
	case 1:
		r.Results = []BatchResult{}
	default:
		r.Results = make([]BatchResult, rng.IntN(6))
	}
	for i := range r.Results {
		it := &r.Results[i]
		if rng.IntN(2) == 0 {
			it.ID = randString(rng)
		}
		if rng.IntN(3) > 0 {
			it.Report = randReport(t, rng)
			it.Cached = rng.IntN(2) == 0
		} else {
			it.Error = randString(rng)
			it.ErrorCode = Code(1 + rng.IntN(len(codeNames)-1))
		}
	}
	r.ElapsedMs = randFloat(rng)
	return r
}

// encoderBytes is what the old reflective path wrote, minus indentation:
// json.Marshal plus Encoder.Encode's trailing newline.
func encoderBytes(t *testing.T, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return append(b, '\n')
}

// TestAppendJSONMatchesEncodingJSON pins the appenders to encoding/json:
// for seeded random responses, including every escaping class, floats on
// both sides of the exponent switch, nil/empty results, items without a
// report, and responses with and without a trace, the appended bytes
// must equal json.Marshal(v) plus a newline.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(20261016, 12))
	for i := 0; i < 2000; i++ {
		ar := AnalyzeResponse{Cached: rng.IntN(2) == 0, ElapsedMs: randFloat(rng)}
		if rng.IntN(8) > 0 {
			ar.Report = randReport(t, rng)
		}
		if rng.IntN(2) == 0 {
			ar.Trace = randSpan(rng, 3)
		}
		if got, want := ar.AppendJSON(nil), encoderBytes(t, ar); !bytes.Equal(got, want) {
			t.Fatalf("AnalyzeResponse #%d:\n got %s\nwant %s", i, got, want)
		}
		br := randBatch(t, rng)
		if got, want := br.AppendJSON(nil), encoderBytes(t, br); !bytes.Equal(got, want) {
			t.Fatalf("BatchResponse #%d:\n got %s\nwant %s", i, got, want)
		}
	}
	for _, f := range wireFloats {
		br := BatchResponse{ElapsedMs: f}
		if got, want := br.AppendJSON(nil), encoderBytes(t, br); !bytes.Equal(got, want) {
			t.Errorf("float %g: got %s want %s", f, got, want)
		}
	}
	for i, s := range wireStrings {
		br := BatchResponse{Results: []BatchResult{{ID: s, Error: s, ErrorCode: Code(1 + i%(len(codeNames)-1))}}}
		if got, want := br.AppendJSON(nil), encoderBytes(t, br); !bytes.Equal(got, want) {
			t.Errorf("string %q: got %s want %s", s, got, want)
		}
	}
}

// TestWriteJSONCompact checks both WriteJSON paths: appenders and the
// json.Encoder fallback write one compact line with an exact
// Content-Length.
func TestWriteJSONCompact(t *testing.T) {
	for _, v := range []any{
		benchPayload(),
		BatchResponse{Results: []BatchResult{{ID: "a", Report: json.RawMessage(`{"x":1}`)}}},
		ErrorResponse{Error: ErrorBody{Code: CodeInternal, Message: "<nope>"}},
	} {
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusTeapot, v)
		body := rec.Body.Bytes()
		if rec.Code != http.StatusTeapot || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%T: status %d, content type %q", v, rec.Code, rec.Header().Get("Content-Type"))
		}
		if want := encoderBytes(t, v); !bytes.Equal(body, want) {
			t.Errorf("%T: body %s, want %s", v, body, want)
		}
		if rec.Header().Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Errorf("%T: Content-Length %q for %d bytes", v, rec.Header().Get("Content-Length"), len(body))
		}
	}
}

// TestBatchAppendJSONAllocs pins the batch appender at zero allocations
// on a warm buffer: merging a batch of reports under plain ids only
// copies bytes. (An id or error that needs escaping goes through
// encoding/json and allocates.)
func TestBatchAppendJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	rng := rand.New(rand.NewPCG(7, 7))
	br := BatchResponse{Results: make([]BatchResult, 32), ElapsedMs: 12.5}
	for i := range br.Results {
		br.Results[i] = BatchResult{ID: "item-" + strconv.Itoa(i), Report: randReport(t, rng), Cached: i%2 == 0}
	}
	br.Results[31] = BatchResult{ID: "item-31", Error: "shed", ErrorCode: CodeShed}
	buf := br.AppendJSON(nil)
	avg := testing.AllocsPerRun(200, func() {
		buf = br.AppendJSON(buf[:0])
	})
	if avg != 0 {
		t.Errorf("BatchResponse.AppendJSON allocates %.1f objects per call on a warm buffer, want 0", avg)
	}
}
