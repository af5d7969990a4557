package service

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	siwa "repro"
)

// Code is one error code of the service's stable error taxonomy: every
// non-2xx response body is {"error":{"code":..., "message":...}} with one
// of these codes, and batch items carry the same codes per program.
// Clients should branch on the code, never on the message text. The set
// is closed: no string converts to a Code, and a value other than the
// constants below does not marshal. The zero Code means no code.
type Code uint8

const (
	// CodeInvalidRequest: the request itself is malformed (bad JSON,
	// unknown algorithm, missing source, bad timeout). HTTP 400.
	CodeInvalidRequest Code = iota + 1
	// CodeParseError: the request was well-formed but the submitted
	// program does not parse or validate. HTTP 422.
	CodeParseError
	// CodeTooLarge: the request body exceeds the configured size cap.
	// HTTP 413.
	CodeTooLarge
	// CodeTimeout: the analysis was admitted but aborted by its deadline
	// (possibly while still queued) or by client disconnect. HTTP 503
	// with Retry-After.
	CodeTimeout
	// CodeShed: the admission queue was full and the request was rejected
	// without waiting. HTTP 429 with Retry-After.
	CodeShed
	// CodeResourceLimit: the program would exceed a configured resource
	// budget (task count, unrolled size); analysis was refused before
	// paying for it. HTTP 422.
	CodeResourceLimit
	// CodeInternal: a pipeline stage or handler panicked; the panic was
	// contained and the server keeps serving. HTTP 500.
	CodeInternal
	// CodeUnavailable: the analysis could not be attempted because the
	// backend that owns it is unreachable (dead replica, open circuit
	// breaker, no healthy backend). Emitted by the cluster gateway, never
	// by a replica itself; listed here so the taxonomy stays in one place.
	// HTTP 503 with Retry-After.
	CodeUnavailable
	// CodeNotFound: the requested resource (a retained trace, an unknown
	// debug object) does not exist. HTTP 404. Emitted by debug endpoints,
	// never by the analysis path.
	CodeNotFound
)

// codeNames are the wire spellings, indexed by Code; the zero Code is "".
var codeNames = [...]string{
	CodeInvalidRequest: "invalid_request",
	CodeParseError:     "parse_error",
	CodeTooLarge:       "too_large",
	CodeTimeout:        "timeout",
	CodeShed:           "shed",
	CodeResourceLimit:  "resource_limit",
	CodeInternal:       "internal",
	CodeUnavailable:    "unavailable",
	CodeNotFound:       "not_found",
}

// Status returns the HTTP status that every response carrying c is sent
// with; a value outside the set is an internal error.
func (c Code) Status() int {
	switch c {
	case CodeInvalidRequest:
		return http.StatusBadRequest
	case CodeParseError, CodeResourceLimit:
		return http.StatusUnprocessableEntity
	case CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeShed:
		return http.StatusTooManyRequests
	case CodeTimeout, CodeUnavailable:
		return http.StatusServiceUnavailable
	case CodeNotFound:
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

// String returns the code's wire spelling.
func (c Code) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return "Code(" + strconv.Itoa(int(c)) + ")"
}

// MarshalText renders the wire spelling; a value outside the set fails.
func (c Code) MarshalText() ([]byte, error) {
	if int(c) >= len(codeNames) {
		return nil, fmt.Errorf("service: error code %d outside the taxonomy", c)
	}
	return []byte(codeNames[c]), nil
}

// UnmarshalText accepts only a spelling from the set.
func (c *Code) UnmarshalText(b []byte) error {
	for i, name := range codeNames {
		if name == string(b) {
			*c = Code(i)
			return nil
		}
	}
	return fmt.Errorf("service: unknown error code %q", b)
}

// ErrorBody is the wire shape of one error: a stable machine-readable
// code plus a human-readable message. TraceID (additive) names the
// distributed trace of the failed request, so an operator can jump from
// an error body straight to /debug/traces/{id}.
type ErrorBody struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
	TraceID string `json:"traceId,omitempty"`
}

// ErrorResponse is every non-2xx response body, on both tiers.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// codedError pins an explicit code onto an error at the point where the
// classification is known — e.g. an injected fault is internal even
// though it arrives as a plain error.
type codedError struct {
	code Code
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

// classify maps an analysis-path error onto its error code. Typed errors
// win; the fallback is parse_error because the remaining untyped failures
// are program-semantics rejections (validation).
func classify(err error) Code {
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.code
	}
	if errors.Is(err, ErrShed) {
		return CodeShed
	}
	if isCancellation(err) {
		return CodeTimeout
	}
	var re *siwa.ResourceError
	if errors.As(err, &re) {
		return CodeResourceLimit
	}
	var ie *siwa.InternalError
	if errors.As(err, &ie) {
		return CodeInternal
	}
	return CodeParseError
}
