package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	siwa "repro"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/waves"
)

// WireOptions is the JSON projection of siwa.Options accepted by the
// analyze endpoints. Field names mirror the library; the algorithm is
// named by its registry spelling (siwa.AlgorithmNames).
type WireOptions struct {
	Algorithm      string `json:"algorithm,omitempty"`
	AllAlgorithms  bool   `json:"allAlgorithms,omitempty"`
	Constraint4    bool   `json:"constraint4,omitempty"`
	Enumerate      bool   `json:"enumerate,omitempty"`
	EnumerateLimit int    `json:"enumerateLimit,omitempty"`
	FIFO           bool   `json:"fifo,omitempty"`
	Exact          bool   `json:"exact,omitempty"`
	// MaxStates caps the exact explorer's state count (0 = waves.DefaultMaxStates).
	MaxStates int `json:"maxStates,omitempty"`
	// Degrade asks for graceful degradation: when an exact or enumeration
	// stage hits its deadline or budget, the response is still HTTP 200
	// carrying the polynomial verdict with "degraded": true instead of a
	// timeout error. The fallback is sound — the polynomial detectors are
	// conservative, so their verdicts stand on their own.
	Degrade bool `json:"degrade,omitempty"`
}

// resolve maps wire options onto library options. A nil receiver is the
// all-defaults request.
func (wo *WireOptions) resolve() (siwa.Options, error) {
	if wo == nil {
		return siwa.Options{}, nil
	}
	var opt siwa.Options
	if wo.Algorithm != "" {
		a, ok := siwa.AlgorithmByName(wo.Algorithm)
		if !ok {
			return opt, fmt.Errorf("unknown algorithm %q (valid: %s)",
				wo.Algorithm, strings.Join(siwa.AlgorithmNames(), ", "))
		}
		opt.Algorithm = a
	}
	if wo.EnumerateLimit < 0 || wo.MaxStates < 0 {
		return opt, errors.New("enumerateLimit and maxStates must be >= 0")
	}
	opt.AllAlgorithms = wo.AllAlgorithms
	opt.Constraint4 = wo.Constraint4
	opt.Enumerate = wo.Enumerate
	opt.EnumerateLimit = wo.EnumerateLimit
	opt.FIFO = wo.FIFO
	opt.Exact = wo.Exact
	opt.ExactOptions = waves.Options{MaxStates: wo.MaxStates}
	opt.Degrade = wo.Degrade
	return opt, nil
}

// AnalyzeRequest is the POST /v1/analyze body. Trace asks the service to
// echo the executed analysis's span tree in the response; it never
// changes the report, its cache key or what the replica records.
type AnalyzeRequest struct {
	Source    string       `json:"source"`
	Options   *WireOptions `json:"options,omitempty"`
	TimeoutMs int64        `json:"timeoutMs,omitempty"`
	Trace     bool         `json:"trace,omitempty"`
}

// AnalyzeResponse is the POST /v1/analyze success body. Report is a
// siwa.JSONReport (schemaVersion inside); Cached reports a result served
// from the content-addressed cache without re-analysis. Trace is the
// pipeline span tree, present only when the request asked for one AND the
// analysis actually ran — cache hits carry no trace, since nothing was
// executed to time.
type AnalyzeResponse struct {
	Report    json.RawMessage `json:"report"`
	Cached    bool            `json:"cached"`
	ElapsedMs float64         `json:"elapsedMs"`
	Trace     *siwa.JSONSpan  `json:"trace,omitempty"`
}

// BatchProgram is one program in a batch request. Its options, when
// present, override the batch-level defaults.
type BatchProgram struct {
	ID      string       `json:"id,omitempty"`
	Source  string       `json:"source"`
	Options *WireOptions `json:"options,omitempty"`
}

// BatchRequest is the POST /v1/analyze/batch body. The deadline covers
// the whole batch; programs are fanned out across the worker pool.
type BatchRequest struct {
	Programs  []BatchProgram `json:"programs"`
	Options   *WireOptions   `json:"options,omitempty"`
	TimeoutMs int64          `json:"timeoutMs,omitempty"`
}

// BatchResult is one program's outcome, in request order. ErrorCode
// carries the taxonomy code for Error (additive; absent on success).
type BatchResult struct {
	ID        string          `json:"id,omitempty"`
	Report    json.RawMessage `json:"report,omitempty"`
	Cached    bool            `json:"cached"`
	Error     string          `json:"error,omitempty"`
	ErrorCode Code            `json:"errorCode,omitempty"`
}

// BatchResponse is the POST /v1/analyze/batch success body.
type BatchResponse struct {
	Results   []BatchResult `json:"results"`
	ElapsedMs float64       `json:"elapsedMs"`
}

// writeError writes a request error and counts it under
// siwa_request_errors_total.
func (s *Server) writeError(w http.ResponseWriter, code Code, format string, args ...any) {
	s.metrics.Errors.Add(1)
	WriteError(w, code, format, args...)
}

// decodeBody decodes the request body into v under the configured size
// limit, reporting (code, error) on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) (Code, error) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := DecodeJSON(r.Body, v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return CodeTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return CodeInvalidRequest, fmt.Errorf("invalid request body: %v", err)
	}
	return 0, nil
}

func isCancellation(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// verdictOf folds a report's two anomaly dimensions into one log label.
func verdictOf(rep *siwa.Report) string {
	df, sf := rep.DeadlockFree(), rep.Stall.StallFree()
	switch {
	case df && sf:
		return "clean"
	case !df && !sf:
		return "may-deadlock,may-stall"
	case !df:
		return "may-deadlock"
	default:
		return "may-stall"
	}
}

// analyzeOutcome is what one analyzeOne call hands back to a handler:
// everything the response body and the request log need.
type analyzeOutcome struct {
	report   json.RawMessage
	verdict  string
	cached   bool
	degraded bool
	trace    *siwa.JSONSpan
}

// reportEntry is the cache entry for one rendered report, stored under
// "rp:" + its content address: the marshalled JSONReport (without any
// span tree) plus the verdict summary, kept alongside so request logs
// can name the outcome of a hit without re-parsing the report.
type reportEntry struct {
	report  json.RawMessage
	verdict string
}

// SizeBytes charges the report and the verdict; the cache adds the key
// and its own bookkeeping.
func (e *reportEntry) SizeBytes() int64 { return int64(len(e.report) + len(e.verdict)) }

// analyzeOne serves one (source, options) pair: a report lookup in the
// replica's cache, then a pool-bounded siwa.AnalyzeSourceContext run
// whose marshalled report is stored back under the content address. A
// report miss still consults the same cache inside the pipeline — a warm
// source asked for new options reuses every already-built artifact and
// runs only the missing suffix. Every analysis that runs records into the
// request's trace, sampled or not: its stage durations feed the
// siwa_analyze_stage_seconds histograms and the slow-request line.
// wantTrace only decides whether the span tree is returned (to the
// requester only) outside the cached report.
func (s *Server) analyzeOne(ctx context.Context, source string, opt siwa.Options, wantTrace bool) (analyzeOutcome, error) {
	var rk string // the report's cache key; unused when caching is off
	if s.cache != nil {
		key := Key(source, opt)
		rk = "rp:" + string(key[:])
		if e, ok := s.cache.Get(rk); ok {
			s.metrics.CacheHits.Add(1)
			rp := e.(*reportEntry)
			return analyzeOutcome{report: rp.report, verdict: rp.verdict, cached: true}, nil
		}
		s.metrics.CacheMisses.Add(1)
	}
	// The pipeline records into the request tracer, so the per-stage spans
	// become children of the request root (and, via traceparent, of the
	// gateway's span).
	opt.Trace = wantTrace
	if th := obs.TraceFromContext(ctx); th != nil {
		opt.Tracer = th.Tracer // implies Trace
	}
	// Limits, Parallelism, Degrade and the cache are service policy, not
	// part of the content address: limits only turn requests into errors
	// (never cached), parallelism never changes verdicts, degraded reports
	// are timing-dependent (also never cached), and the cache changes
	// where artifacts come from, not what they are.
	opt.Limits = s.cfg.Limits
	opt.Parallelism = analysisParallelism
	opt.StageCache = s.cache
	var out analyzeOutcome
	var runErr error
	err := s.pool.Do(ctx, func() {
		if ferr := fault.Inject("service.analyze"); ferr != nil {
			runErr = &codedError{CodeInternal, ferr}
			return
		}
		// Parse errors surface untyped and classify() maps them to HTTP
		// 422 parse_error; internal (contained-panic) and resource errors
		// carry their own types through unchanged.
		rep, err := siwa.AnalyzeSourceContext(ctx, source, opt)
		if err != nil {
			runErr = err
			return
		}
		s.metrics.Analyses.Add(1)
		if !rep.DeadlockFree() || !rep.Stall.StallFree() {
			s.metrics.Anomalous.Add(1)
		}
		if rep.Degraded {
			s.metrics.Degraded.Add(1)
		}
		s.metrics.ObserveSpans(rep.Trace)
		// The cached report must be identical for traced and untraced
		// requests (they share a key), so it is rendered with the span
		// tree detached. The tree is projected to JSON only for a
		// requester that asked for it; sampling alone never does.
		trace := rep.Trace
		rep.Trace = nil
		b, err := json.Marshal(rep.JSONReport())
		if err != nil {
			runErr = err
			return
		}
		out = analyzeOutcome{report: b, verdict: verdictOf(rep), degraded: rep.Degraded}
		if wantTrace {
			out.trace = trace.JSON()
		}
		if !rep.Degraded {
			// A degraded report reflects this run's deadline, not the
			// program: a retry with more headroom deserves the full result.
			s.cache.Put(rk, &reportEntry{report: b, verdict: out.verdict})
		}
	})
	if err != nil {
		// Pool admission shed the request or lost the race against the
		// deadline: the analysis never started.
		return analyzeOutcome{}, err
	}
	if runErr != nil {
		if isInternal(runErr) {
			// A pipeline stage panicked and was contained by the library's
			// per-stage recovery; count it so /metrics accounts for every
			// panic the process survived.
			s.metrics.Panics.Add(1)
		}
		return analyzeOutcome{}, runErr
	}
	return out, nil
}

// isInternal reports whether err is (or wraps) a contained panic.
func isInternal(err error) bool {
	var ie *siwa.InternalError
	return errors.As(err, &ie)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.metrics.RequestsAnalyze.Add(1)
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)
	start := time.Now()
	defer func() { s.metrics.ObserveRequest("analyze", time.Since(start)) }()
	reject := func(code Code, err error) {
		s.writeError(w, code, "%v", err)
		s.edge.LogRequest(r, "analyze", code.Status(), start, slog.String("error", err.Error()))
	}
	var req AnalyzeRequest
	if code, err := s.decodeBody(w, r, &req); err != nil {
		reject(code, err)
		return
	}
	if req.Source == "" {
		reject(CodeInvalidRequest, errors.New("missing source"))
		return
	}
	opt, err := req.Options.resolve()
	if err != nil {
		reject(CodeInvalidRequest, err)
		return
	}
	algo := opt.Algorithm.String()
	th := obs.TraceFromContext(r.Context())
	th.RootSpan().SetAttr("algorithm", algo)
	d, err := ResolveTimeout(req.TimeoutMs, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	if err != nil {
		reject(CodeInvalidRequest, err)
		return
	}
	d, shed := s.cfg.deadlineBudget(r, d)
	if shed {
		s.shedDeadline(w, r, "analyze", start)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	out, err := s.analyzeOne(ctx, req.Source, opt, req.Trace)
	if out.degraded {
		// Mark the request root so the exporter always retains degraded
		// requests, whatever the sampling decision said.
		th.RootSpan().Set("degraded", 1)
	}
	if err == nil {
		if out.cached {
			w.Header().Set(CacheHeader, CacheHit)
		}
		WriteJSON(w, http.StatusOK, AnalyzeResponse{
			Report:    out.report,
			Cached:    out.cached,
			ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
			Trace:     out.trace,
		})
		s.edge.LogRequest(r, "analyze", http.StatusOK, start,
			slog.String("algorithm", algo),
			slog.Bool("cached", out.cached),
			slog.String("verdict", out.verdict))
		return
	}
	code := classify(err)
	switch code {
	case CodeTimeout:
		// Timeouts and sheds are load conditions, not client errors: they
		// count under their own metrics, not siwa_request_errors_total.
		s.metrics.Timeouts.Add(1)
		s.setRetryAfter(w)
		WriteError(w, code, "analysis aborted: %v", err)
	case CodeShed:
		s.metrics.Shed.Add(1)
		s.setRetryAfter(w)
		WriteError(w, code, "%v", err)
	default:
		s.writeError(w, code, "%v", err)
	}
	s.edge.LogRequest(r, "analyze", code.Status(), start,
		slog.String("algorithm", algo),
		slog.String("code", code.String()),
		slog.String("error", err.Error()))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.RequestsBatch.Add(1)
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)
	start := time.Now()
	defer func() { s.metrics.ObserveRequest("batch", time.Since(start)) }()
	reject := func(code Code, err error) {
		s.writeError(w, code, "%v", err)
		s.edge.LogRequest(r, "batch", code.Status(), start, slog.String("error", err.Error()))
	}
	var req BatchRequest
	if code, err := s.decodeBody(w, r, &req); err != nil {
		reject(code, err)
		return
	}
	if len(req.Programs) == 0 {
		reject(CodeInvalidRequest, errors.New("empty batch"))
		return
	}
	if len(req.Programs) > s.cfg.MaxBatch {
		s.writeError(w, CodeInvalidRequest, "batch of %d exceeds limit %d", len(req.Programs), s.cfg.MaxBatch)
		s.edge.LogRequest(r, "batch", CodeInvalidRequest.Status(), start, slog.String("error", "batch too large"))
		return
	}
	d, err := ResolveTimeout(req.TimeoutMs, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	if err != nil {
		reject(CodeInvalidRequest, err)
		return
	}
	d, shed := s.cfg.deadlineBudget(r, d)
	if shed {
		s.shedDeadline(w, r, "batch", start)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()

	results := make([]BatchResult, len(req.Programs))
	var degradedItems atomic.Int64
	// Trickle items into the pool instead of flooding it: pool-size
	// workers each claim the next unclaimed item, so at most pool-size
	// items from this batch are in admission at once. A lone large batch
	// never exhausts the queue and sheds itself; only genuine
	// cross-request overload does.
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(s.pool.Size(), len(req.Programs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(req.Programs) {
					return
				}
				if s.batchItem(ctx, req.Programs[i], req.Options, &results[i]) {
					degradedItems.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if degradedItems.Load() > 0 {
		// After the join: the root's counters are written on this goroutine
		// only, and a degraded batch is always retained by the exporter.
		obs.TraceFromContext(r.Context()).RootSpan().Set("degraded", degradedItems.Load())
	}
	WriteJSON(w, http.StatusOK, BatchResponse{
		Results:   results,
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
	})
	cached, failed := 0, 0
	for i := range results {
		if results[i].Cached {
			cached++
		}
		if results[i].Error != "" {
			failed++
		}
	}
	s.edge.LogRequest(r, "batch", http.StatusOK, start,
		slog.Int("programs", len(results)),
		slog.Int("cached", cached),
		slog.Int("failed", failed))
}

// batchItem analyzes one batch program into res, under the batch's
// options unless the program has its own, and reports whether the report
// is degraded.
func (s *Server) batchItem(ctx context.Context, p BatchProgram, batchOpts *WireOptions, res *BatchResult) (degraded bool) {
	res.ID = p.ID
	// Panics in a batch worker bypass the HTTP recovery middleware (that
	// runs on the request goroutine) and would kill the process: contain
	// them per item.
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.Panics.Add(1)
			s.metrics.BatchItems[BatchError].Add(1)
			res.Error = fmt.Sprintf("internal error: %v", rec)
			res.ErrorCode = CodeInternal
		}
	}()
	if p.Source == "" {
		res.Error = "missing source"
		res.ErrorCode = CodeInvalidRequest
		s.metrics.BatchItems[BatchError].Add(1)
		return false
	}
	wo := p.Options
	if wo == nil {
		wo = batchOpts
	}
	opt, err := wo.resolve()
	if err != nil {
		res.Error = err.Error()
		res.ErrorCode = CodeInvalidRequest
		s.metrics.BatchItems[BatchError].Add(1)
		return false
	}
	out, err := s.analyzeOne(ctx, p.Source, opt, false)
	if err != nil {
		code := classify(err)
		switch code {
		case CodeTimeout:
			s.metrics.Timeouts.Add(1)
			s.metrics.BatchItems[BatchTimeout].Add(1)
		case CodeShed:
			s.metrics.Shed.Add(1)
			s.metrics.BatchItems[BatchShed].Add(1)
		default:
			s.metrics.BatchItems[BatchError].Add(1)
		}
		res.Error = err.Error()
		res.ErrorCode = code
		return false
	}
	if out.cached {
		s.metrics.BatchItems[BatchCached].Add(1)
	} else {
		s.metrics.BatchItems[BatchOK].Add(1)
	}
	res.Report = out.report
	res.Cached = out.cached
	return out.degraded
}

// AlgorithmEntry is one detector in the GET /v1/algorithms listing.
type AlgorithmEntry struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// AlgorithmsResponse is the GET /v1/algorithms body: the detector
// spectrum in increasing precision/cost order, plus the name applied when
// a request names no algorithm.
type AlgorithmsResponse struct {
	Default    string           `json:"default"`
	Algorithms []AlgorithmEntry `json:"algorithms"`
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	resp := AlgorithmsResponse{Default: siwa.Options{}.Algorithm.String()}
	for _, info := range siwa.AlgorithmList() {
		resp.Algorithms = append(resp.Algorithms, AlgorithmEntry{
			Name:        info.Name,
			Description: info.Description,
		})
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Readiness is the /readyz body. Instance is the random id New draws for
// each Server, so a prober can tell a replaced replica behind the same
// URL from the one it saw before.
type Readiness struct {
	Status   string `json:"status"`
	Instance string `json:"instance"`
}

// handleReadyz is the readiness probe, distinct from liveness: a draining
// server (graceful shutdown in progress) answers 503 so load balancers
// stop routing new work here, while /healthz stays green because the
// process is alive and finishing in-flight requests. There is no
// "starting" state — New constructs the pool and mounts the routes
// synchronously, so any server reachable over HTTP is fully up. The
// cluster gateway's health checker consumes this.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.edge.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, Readiness{Status: "draining", Instance: s.instance})
		return
	}
	WriteJSON(w, http.StatusOK, Readiness{Status: "ready", Instance: s.instance})
}

// shedDeadline rejects a request whose propagated deadline budget
// (X-Deadline-Ms) is below the admission floor: the caller's deadline
// will pass before any useful work could complete, so the honest answer
// is an immediate timeout — before any analysis starts — rather than
// computing a result nobody is waiting for. Counted separately from real
// timeouts (siwa_deadline_shed_total) so dashboards can tell "we were
// slow" from "we refused work that was already dead on arrival".
func (s *Server) shedDeadline(w http.ResponseWriter, r *http.Request, endpoint string, start time.Time) {
	s.metrics.DeadlineShed.Add(1)
	WriteError(w, CodeTimeout, "deadline budget %sms below admission floor %v", r.Header.Get(DeadlineHeader), s.cfg.DeadlineFloor)
	s.edge.LogRequest(r, endpoint, CodeTimeout.Status(), start,
		slog.String("code", CodeTimeout.String()),
		slog.String("error", "deadline budget below floor"))
}

// retryAfterSeconds derives the Retry-After hint for shed and timeout
// responses from current congestion: with `queued` analyses already
// waiting and `workers` slots draining them, a retry has no chance of
// admission for roughly queued/workers analysis-slot turns, so the hint
// grows with the backlog instead of the old constant 1. Bounds: never
// below 1 (an empty queue still wants a beat of backoff), never above 30
// (past that the client should give up, not sleep).
func retryAfterSeconds(queued, workers int) int {
	if workers < 1 {
		workers = 1
	}
	if queued < 0 {
		queued = 0
	}
	hint := 1 + queued/workers
	if hint > 30 {
		hint = 30
	}
	return hint
}

// setRetryAfter stamps the derived backoff hint on a shed/timeout response.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.pool.Queued(), s.pool.Size())))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w, s.cache, s.pool, s.exporter)
}
