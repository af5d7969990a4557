package service

import (
	"errors"
	"net/http"

	siwa "repro"
)

// Error codes form the service's stable error taxonomy: every non-2xx
// response body is {"error":{"code":..., "message":...}} with one of
// these codes, and batch items carry the same codes per program. Clients
// should branch on the code, never on the message text.
const (
	// CodeInvalidRequest: the request itself is malformed (bad JSON,
	// unknown algorithm, missing source, bad timeout). HTTP 400.
	CodeInvalidRequest = "invalid_request"
	// CodeParseError: the request was well-formed but the submitted
	// program does not parse or validate. HTTP 422.
	CodeParseError = "parse_error"
	// CodeTooLarge: the request body exceeds the configured size cap.
	// HTTP 413.
	CodeTooLarge = "too_large"
	// CodeTimeout: the analysis was admitted but aborted by its deadline
	// (possibly while still queued) or by client disconnect. HTTP 503
	// with Retry-After.
	CodeTimeout = "timeout"
	// CodeShed: the admission queue was full and the request was rejected
	// without waiting. HTTP 429 with Retry-After.
	CodeShed = "shed"
	// CodeResourceLimit: the program would exceed a configured resource
	// budget (task count, unrolled size); analysis was refused before
	// paying for it. HTTP 422.
	CodeResourceLimit = "resource_limit"
	// CodeInternal: a pipeline stage or handler panicked; the panic was
	// contained and the server keeps serving. HTTP 500.
	CodeInternal = "internal"
	// CodeUnavailable: the analysis could not be attempted because the
	// backend that owns it is unreachable (dead replica, open circuit
	// breaker, no healthy backend). Emitted by the cluster gateway, never
	// by a replica itself; listed here so the taxonomy stays in one place.
	// HTTP 503 with Retry-After.
	CodeUnavailable = "unavailable"
	// CodeNotFound: the requested resource (a retained trace, an unknown
	// debug object) does not exist. HTTP 404. Emitted by debug endpoints,
	// never by the analysis path.
	CodeNotFound = "not_found"
)

// ErrorBody is the wire shape of one error: a stable machine-readable
// code plus a human-readable message. TraceID (additive) names the
// distributed trace of the failed request, so an operator can jump from
// an error body straight to /debug/traces/{id}.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	TraceID string `json:"traceId,omitempty"`
}

// ErrorResponse is every non-2xx response body, on both tiers.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// codedError pins an explicit (status, code) onto an error at the point
// where the classification is known — e.g. a siwa.Parse failure is a
// parse_error even though the library returns a plain error.
type codedError struct {
	status int
	code   string
	err    error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

// classify maps an analysis-path error onto (HTTP status, error code).
// Typed errors win; the fallback is parse_error because the remaining
// untyped failures are program-semantics rejections (validation).
func classify(err error) (int, string) {
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.status, ce.code
	}
	if errors.Is(err, ErrShed) {
		return http.StatusTooManyRequests, CodeShed
	}
	if isCancellation(err) {
		return http.StatusServiceUnavailable, CodeTimeout
	}
	var re *siwa.ResourceError
	if errors.As(err, &re) {
		return http.StatusUnprocessableEntity, CodeResourceLimit
	}
	var ie *siwa.InternalError
	if errors.As(err, &ie) {
		return http.StatusInternalServerError, CodeInternal
	}
	return http.StatusUnprocessableEntity, CodeParseError
}
