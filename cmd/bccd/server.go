package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bcclique/internal/engine"
	"bcclique/internal/obs"
	"bcclique/internal/report"
	"bcclique/internal/results"
	"bcclique/internal/serving"
)

// serverConfig is the serving-armor configuration; see the flag
// descriptions in main.go for the semantics of each knob.
type serverConfig struct {
	// queueCapacity bounds concurrently admitted heavy work: async jobs
	// plus synchronous report/sweep computations.
	queueCapacity int
	// requestTimeout bounds each synchronous computation; 0 disables.
	requestTimeout time.Duration
	// rateLimit/rateBurst configure the per-client token bucket on the
	// /v1 endpoints; rateLimit 0 disables.
	rateLimit float64
	rateBurst int
	// maxBodyBytes caps POST bodies.
	maxBodyBytes int64
	// retryAfter is the Retry-After hint on queue-full 429s.
	retryAfter time.Duration
	// logger receives the server's structured records (rejections, drain
	// progress); nil discards them, which is what tests default to.
	logger *slog.Logger
}

func defaultServerConfig() serverConfig {
	return serverConfig{
		queueCapacity:  8,
		requestTimeout: 5 * time.Minute,
		rateLimit:      0,
		rateBurst:      30,
		maxBodyBytes:   1 << 20,
		retryAfter:     5 * time.Second,
	}
}

// server is the HTTP layer over one engine, armored for production:
// bounded admission, per-client rate limiting, request timeouts,
// client-disconnect cancellation, graceful drain, and /metrics.
// Experiment state lives in the engine (jobs) and its store (results);
// the server owns only serving state.
type server struct {
	eng     *engine.Engine
	cfg     serverConfig
	queue   *serving.Queue
	limiter *serving.Limiter

	// ready gates /readyz: true from construction until StartDrain.
	ready atomic.Bool
	// jobCtx is the base context async jobs run under — deliberately
	// not the submit request's context, so a client disconnect never
	// kills an accepted job. cancelJobs fires only at the hard drain
	// deadline.
	jobCtx     context.Context
	cancelJobs context.CancelFunc

	start    time.Time
	log      *slog.Logger
	metrics  *serving.Registry
	requests *serving.CounterVec   // labels: endpoint, code
	latency  *serving.HistogramVec // labels: endpoint

	// reqSeq numbers synchronous request traces ("req-<n>-<route>"), so
	// every traced response can hand back an X-Trace-Id resolvable at
	// /v1/traces/{id}.
	reqSeq atomic.Uint64

	// Per-cell histograms by protocol×family, fed from completed cell
	// spans via the tracer's OnEnd hook; nil when tracing is off.
	cellSeconds *serving.HistogramVec
	cellRounds  *serving.HistogramVec
	cellBits    *serving.HistogramVec
}

func newServer(eng *engine.Engine, cfg serverConfig) *server {
	jobCtx, cancelJobs := context.WithCancel(context.Background())
	s := &server{
		eng:        eng,
		cfg:        cfg,
		queue:      serving.NewQueue(cfg.queueCapacity),
		limiter:    serving.NewLimiter(cfg.rateLimit, cfg.rateBurst),
		jobCtx:     jobCtx,
		cancelJobs: cancelJobs,
		start:      time.Now(),
	}
	s.ready.Store(true)
	s.log = cfg.logger
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	s.initMetrics()
	// Completed cell spans feed the per-cell histograms: duration from
	// the span itself, mean rounds/bits from the attributes the harness
	// sets. The hook runs on whichever goroutine ends the span, outside
	// the tracer lock; HistogramVec.Observe is concurrency-safe.
	if tr := eng.Tracer(); tr != nil {
		tr.OnEnd(func(rec obs.Record) {
			if rec.Name != "cell" {
				return
			}
			proto, _ := rec.Attr("protocol")
			fam, _ := rec.Attr("family")
			s.cellSeconds.Observe(rec.Duration.Seconds(), proto.Str, fam.Str)
			if a, ok := rec.Attr("mean_rounds"); ok {
				s.cellRounds.Observe(a.Num, proto.Str, fam.Str)
			}
			if a, ok := rec.Attr("mean_bits"); ok {
				s.cellBits.Observe(a.Num, proto.Str, fam.Str)
			}
		})
	}
	return s
}

func (s *server) initMetrics() {
	m := serving.NewRegistry()
	s.requests = m.CounterVec("bccd_requests_total",
		"HTTP requests by endpoint pattern and status code.", "endpoint", "code")
	s.latency = m.HistogramVec("bccd_request_duration_seconds",
		"HTTP request latency by endpoint pattern.", serving.DefaultLatencyBuckets, "endpoint")
	m.GaugeFunc("bccd_queue_depth", "Admitted units of heavy work currently held.",
		func() float64 { return float64(s.queue.Depth()) })
	m.GaugeFunc("bccd_queue_capacity", "Admission queue capacity.",
		func() float64 { return float64(s.queue.Capacity()) })
	m.GaugeFunc("bccd_jobs_inflight", "Submitted jobs currently queued or running.",
		func() float64 { return float64(s.eng.ActiveJobs()) })
	m.GaugeFunc("bccd_ready", "1 while accepting work, 0 once draining.",
		func() float64 {
			if s.ready.Load() {
				return 1
			}
			return 0
		})
	m.CounterFunc("bccd_spec_executions_total", "Spec executions actually performed (cache hits excluded).",
		func() float64 { return float64(s.eng.Executions()) })
	m.CounterFunc("bccd_cell_executions_total", "Sweep-grid cells actually computed (cache hits excluded).",
		func() float64 { return float64(s.eng.CellExecutions()) })
	m.GaugeFunc("bccd_cells_running", "Sweep-grid cells computing right now (cache hits excluded).",
		func() float64 { return float64(engine.RunningCells()) })
	m.GaugeFunc("bccd_cell_peak_resident_bytes", "High-water mark of heap bytes per concurrently running cell since start.",
		func() float64 { return float64(engine.PeakCellResidentBytes()) })
	m.GaugeFunc("bccd_cells_per_second", "Average computed cells per second of process uptime.",
		func() float64 {
			up := time.Since(s.start).Seconds()
			if up <= 0 {
				return 0
			}
			return float64(s.eng.CellExecutions()) / up
		})
	m.GaugeFunc("bccd_cache_hit_rate", "Store hits (disk + shared in-flight) over lookups since start; 0 when uncached or unused.",
		func() float64 {
			st := s.eng.Store()
			if st == nil {
				return 0
			}
			stats := st.Stats()
			total := stats.Hits + stats.Shared + stats.Misses
			if total == 0 {
				return 0
			}
			return float64(stats.Hits+stats.Shared) / float64(total)
		})
	m.CounterFunc("bccd_cache_hits_total", "Result-store disk hits.",
		func() float64 { return float64(s.storeStats().Hits) })
	m.CounterFunc("bccd_cache_shared_total", "Requests served by piggybacking on an identical in-flight computation.",
		func() float64 { return float64(s.storeStats().Shared) })
	m.CounterFunc("bccd_cache_misses_total", "Result-store misses (computations).",
		func() float64 { return float64(s.storeStats().Misses) })
	m.GaugeFunc("bccd_store_breaker_state", "Store circuit breaker: 0 closed, 0.5 half-open, 1 open.",
		func() float64 {
			st := s.eng.Store()
			if st == nil {
				return 0
			}
			switch st.Health().State() {
			case results.StateOpen:
				return 1
			case results.StateHalfOpen:
				return 0.5
			}
			return 0
		})
	m.CounterFunc("bccd_store_quarantined_total", "Corrupt store entries moved to quarantine and recomputed.",
		func() float64 { return float64(s.storeStats().Quarantined) })
	m.CounterFunc("bccd_store_bypass_total", "Computations that skipped the store because the breaker was open.",
		func() float64 { return float64(s.storeStats().Bypassed) })
	m.CounterFunc("bccd_store_retries_total", "Backend operation retries absorbed by the retry decorator.",
		func() float64 { return float64(s.storeStats().Retries) })
	m.CounterFunc("bccd_store_get_errors_total", "Store reads that failed with a backend error (corruption excluded).",
		func() float64 { return float64(s.storeStats().GetErrors) })
	// Per-cell cost histograms by protocol×family. Populated only while
	// tracing is on (they are fed from completed cell spans); registered
	// unconditionally so dashboards see stable series either way.
	s.cellSeconds = m.HistogramVec("bccd_cell_seconds",
		"Wall time per computed sweep cell by protocol and family.",
		serving.DefaultLatencyBuckets, "protocol", "family")
	s.cellRounds = m.HistogramVec("bccd_cell_rounds",
		"Mean simulated rounds per sweep cell by protocol and family.",
		[]float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}, "protocol", "family")
	s.cellBits = m.HistogramVec("bccd_cell_bits",
		"Mean total broadcast bits per sweep cell by protocol and family.",
		[]float64{64, 512, 4096, 32768, 262144, 2097152, 16777216, 134217728}, "protocol", "family")
	s.metrics = m
}

func (s *server) storeStats() results.Stats {
	if st := s.eng.Store(); st != nil {
		return st.Stats()
	}
	return results.Stats{}
}

// StartDrain begins graceful shutdown: /readyz flips to 503 so load
// balancers stop routing here, and the admission queue closes so new
// heavy work is rejected while everything already admitted keeps its
// slot. Idempotent.
func (s *server) StartDrain() {
	s.ready.Store(false)
	s.queue.Close()
}

// Drain runs the full drain sequence: StartDrain, then wait for
// in-flight jobs to finish within the deadline, then hard-cancel
// whatever remains (running grids observe the cancellation at their
// next simulated round; their completed cells stay cached). Returns
// nil when everything finished cleanly, the wait error otherwise.
func (s *server) Drain(ctx context.Context) error {
	s.StartDrain()
	s.log.Info("drain started", "active_jobs", s.eng.ActiveJobs())
	err := s.eng.WaitJobs(ctx)
	if err != nil {
		// The deadline passed with jobs still running: this is the one
		// hard-cancel in the server's life, and it must leave a record —
		// the cancelled jobs report status "cancelled", not "failed", and
		// their completed cells stay cached.
		s.log.Error("drain deadline exceeded; hard-cancelling in-flight jobs",
			"active_jobs", s.eng.ActiveJobs(), "error", err.Error())
	} else {
		s.log.Info("drain complete")
	}
	s.cancelJobs()
	return err
}

// statusWriter records the response code for metrics (and whether any
// body bytes were written, which streaming error paths consult).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

// Flush passes through so streaming handlers can still force rows out.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// clientKey identifies the client for rate limiting: the remote IP
// without the ephemeral port, so one client's connections share one
// bucket.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// route registers one path with explicit method dispatch. Unsupported
// methods get a JSON 405 with the Allow header listing what the path
// supports; every outcome (including 405s and rate-limit 429s) is
// counted in the per-endpoint metrics under the registered pattern, so
// metric cardinality is bounded by the route table, not by request
// paths. limited marks endpoints subject to per-client rate limiting —
// compute endpoints are, monitoring endpoints never are.
func (s *server) route(mux *http.ServeMux, pattern string, limited bool, methods map[string]http.HandlerFunc) {
	allow := make([]string, 0, len(methods)+1)
	for _, m := range []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodDelete} {
		if _, ok := methods[m]; ok {
			allow = append(allow, m)
		}
	}
	if _, ok := methods[http.MethodGet]; ok {
		allow = append(allow, http.MethodHead)
	}
	allowHeader := strings.Join(allow, ", ")
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		startReq := time.Now()
		defer func() {
			code := sw.code
			if code == 0 {
				code = http.StatusOK
			}
			s.requests.With(pattern, strconv.Itoa(code)).Inc()
			s.latency.Observe(time.Since(startReq).Seconds(), pattern)
		}()
		h, ok := methods[r.Method]
		if !ok && r.Method == http.MethodHead {
			h, ok = methods[http.MethodGet]
		}
		if !ok {
			sw.Header().Set("Allow", allowHeader)
			writeError(sw, http.StatusMethodNotAllowed, "method %s not allowed for %s (allow: %s)", r.Method, r.URL.Path, allowHeader)
			return
		}
		if limited && !s.limiter.Allow(clientKey(r)) {
			ra := s.limiter.RetryAfter(clientKey(r))
			sw.Header().Set("Retry-After", strconv.Itoa(int(ra.Seconds())))
			writeError(sw, http.StatusTooManyRequests, "rate limit exceeded; retry after %s", ra)
			s.log.Warn("request rejected",
				"reason", "rate_limit", "client", clientKey(r), "route", pattern,
				"queue_depth", s.queue.Depth(), "retry_after", ra.String())
			return
		}
		h(sw, r)
	})
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "/v1/jobs", true, map[string]http.HandlerFunc{
		http.MethodPost: s.submitJob,
		http.MethodGet:  s.listJobs,
	})
	s.route(mux, "/v1/jobs/{id}", true, map[string]http.HandlerFunc{http.MethodGet: s.getJob})
	s.route(mux, "/v1/report", true, map[string]http.HandlerFunc{http.MethodGet: s.report})
	s.route(mux, "/v1/sweeps", true, map[string]http.HandlerFunc{http.MethodGet: s.sweeps})
	s.route(mux, "/v1/specs", true, map[string]http.HandlerFunc{http.MethodGet: s.specs})
	s.route(mux, "/v1/traces", false, map[string]http.HandlerFunc{http.MethodGet: s.listTraces})
	s.route(mux, "/v1/traces/{id}", false, map[string]http.HandlerFunc{http.MethodGet: s.getTrace})
	s.route(mux, "/healthz", false, map[string]http.HandlerFunc{http.MethodGet: s.health})
	s.route(mux, "/readyz", false, map[string]http.HandlerFunc{http.MethodGet: s.readyz})
	s.route(mux, "/metrics", false, map[string]http.HandlerFunc{http.MethodGet: s.metricsHandler})
	return mux
}

// admit acquires one admission slot for heavy work, translating
// admission failures into their HTTP shapes: full → 429 with
// Retry-After, draining → 503. Both rejections leave a structured log
// record with the client, route, and queue depth — without it an
// operator sees only the aggregate 429/503 counters and cannot tell
// who is being shed. The returned release must be called when the work
// finishes; ok=false means the response has been written.
func (s *server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release, err := s.queue.Acquire()
	switch {
	case errors.Is(err, serving.ErrFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.retryAfter.Seconds())))
		writeError(w, http.StatusTooManyRequests, "server at capacity (%d units in flight); retry after %s",
			s.queue.Capacity(), s.cfg.retryAfter)
		s.log.Warn("request rejected",
			"reason", "queue_full", "client", clientKey(r), "route", r.URL.Path,
			"queue_depth", s.queue.Depth(), "queue_capacity", s.queue.Capacity())
		return nil, false
	case errors.Is(err, serving.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "server is draining; submit to another instance")
		s.log.Warn("request rejected",
			"reason", "draining", "client", clientKey(r), "route", r.URL.Path,
			"queue_depth", s.queue.Depth())
		return nil, false
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return nil, false
	}
	return release, true
}

// requestCtx derives the computation context for a synchronous
// endpoint: the request's own context (so a client disconnect cancels
// the computation at its next simulated round) bounded by the
// configured per-request timeout.
func (s *server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.requestTimeout <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), s.cfg.requestTimeout)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// countingWriter tracks whether any bytes actually reached the client,
// which is what decides a streaming handler's error shape: before the
// first byte a failure can still be a clean JSON 500 (headers are unsent,
// so a Content-Type set optimistically is simply overwritten); after it,
// the only honest signal is the in-band error trailer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// errorStatus maps a computation error to its HTTP status: a blown
// per-request deadline is the gateway's fault (504), anything else a
// plain 500.
func errorStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// streamError finishes a streaming response after err: a JSON error
// when nothing was flushed (504 for a deadline, 500 otherwise; a
// vanished client gets a best-effort 500 it will never read), the
// "\nerror: ..." trailer contract otherwise.
func streamError(w http.ResponseWriter, cw *countingWriter, err error) {
	if cw.n == 0 {
		writeError(w, errorStatus(err), "%v", err)
		return
	}
	fmt.Fprintf(w, "\nerror: %v\n", err)
}

// flushingSink wraps a RunGrid row sink so each row is pushed through
// net/http's response buffer as it completes — without this, per-row
// "streaming" stops at the server's internal bufio and a slow cold grid
// delivers nothing for minutes.
func flushingSink(w http.ResponseWriter, sink func(engine.GridCell, []string) error) func(engine.GridCell, []string) error {
	f, ok := w.(http.Flusher)
	if !ok {
		return sink
	}
	return func(c engine.GridCell, row []string) error {
		if err := sink(c, row); err != nil {
			return err
		}
		f.Flush()
		return nil
	}
}

// cacheTracker classifies one synchronous request's cache behaviour
// from the engine events it observes (events arrive from worker
// goroutines, hence the atomics). The request-level verdict is the most
// degraded state any unit reported: bypass > miss > hit.
type cacheTracker struct {
	computed atomic.Int64
	bypassed atomic.Int64
}

func (t *cacheTracker) observe(ev engine.Event) {
	if ev.Kind != engine.EventDone {
		return
	}
	if ev.Cache == "bypass" {
		t.bypassed.Add(1)
	} else {
		t.computed.Add(1)
	}
}

// state returns the X-Cache-State verdict from what has been observed
// so far. For buffered responses (md/json sweeps) that is exact; for
// streamed responses the header is committed with the first body byte,
// so it reflects the units known by then — the stream itself stays
// correct either way.
func (t *cacheTracker) state() string {
	switch {
	case t.bypassed.Load() > 0:
		return "bypass"
	case t.computed.Load() > 0:
		return "miss"
	default:
		return "hit"
	}
}

// lazyRenderer defers the wrapped renderer's Begin until the first
// delivered section (or End, for empty runs), invoking onBegin just
// before — the hook that lets /v1/report set X-Cache-State, which is
// unknowable until work completes, while response headers are still
// unsent. It also upgrades the error contract: a run that fails before
// any section now answers a clean JSON error for every format instead
// of markdown front matter followed by a trailer. Stream delivers
// sections and End on one goroutine, so no locking is needed.
type lazyRenderer struct {
	inner   report.Renderer
	meta    report.Meta
	onBegin func()
	began   bool
}

func (l *lazyRenderer) Begin(w io.Writer, m report.Meta) error {
	l.meta = m
	return nil
}

func (l *lazyRenderer) begin(w io.Writer) error {
	if l.began {
		return nil
	}
	l.began = true
	if l.onBegin != nil {
		l.onBegin()
	}
	return l.inner.Begin(w, l.meta)
}

func (l *lazyRenderer) Section(w io.Writer, index int, r *report.Result) error {
	if err := l.begin(w); err != nil {
		return err
	}
	return l.inner.Section(w, index, r)
}

func (l *lazyRenderer) End(w io.Writer, results []*report.Result) error {
	if err := l.begin(w); err != nil {
		return err
	}
	return l.inner.End(w, results)
}

// headerSink wraps a row sink so the X-Cache-State header is committed
// just before the first row leaves — the last moment it can still be
// set on a streamed sweep. Rows are delivered in cell order on one
// assembly goroutine.
func headerSink(w http.ResponseWriter, t *cacheTracker, sink func(engine.GridCell, []string) error) func(engine.GridCell, []string) error {
	first := true
	return func(c engine.GridCell, row []string) error {
		if first {
			first = false
			w.Header().Set("X-Cache-State", t.state())
		}
		return sink(c, row)
	}
}

// validateOnly rejects unknown spec IDs up front so a typo is a 400, not
// a silently empty report.
func (s *server) validateOnly(only []string) error {
	for _, id := range only {
		if _, ok := s.eng.Lookup(id); !ok {
			return fmt.Errorf("unknown experiment ID %q", id)
		}
	}
	return nil
}

type jobRequest struct {
	Only  []string `json:"only,omitempty"`
	Quick bool     `json:"quick"`
	// Seed is a pointer so an explicit 0 is distinguishable from an
	// omitted field (which defaults to 1, like GET /v1/report and the
	// CLIs).
	Seed *int64 `json:"seed"`
}

func (s *server) submitJob(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes)
	var req jobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	seed := int64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}
	if err := s.validateOnly(req.Only); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The job holds its admission slot until it finishes, so queued +
	// running jobs plus synchronous computations can never exceed the
	// queue capacity.
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	// Jobs run under the server's base context, not the request's: the
	// 202 below ends this request, and an accepted job must survive its
	// submitter hanging up.
	job := s.eng.Submit(s.jobCtx, engine.Config{Quick: req.Quick, Seed: seed}, req.Only)
	if s.eng.Tracer() != nil {
		// A job's trace ID is its job ID, so the submitter can watch the
		// span tree grow at /v1/traces/{id} while the job runs.
		w.Header().Set("X-Trace-Id", job.ID)
	}
	go func() {
		defer release()
		s.eng.WaitJob(context.Background(), job.ID)
	}()
	writeJSON(w, http.StatusAccepted, job)
}

func (s *server) listJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.Jobs())
}

func (s *server) getJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.eng.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// report renders a spec set synchronously, straight off the cache when
// warm, streaming sections in registry ID order as they complete. The
// computation runs under the request context: a client that hangs up
// cancels its own run (at the next simulated round), and the per-request
// timeout bounds the worst case.
func (s *server) report(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cfg, err := parseConfig(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var only []string
	if v := q.Get("only"); v != "" {
		only = strings.Split(v, ",")
	}
	if err := s.validateOnly(only); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	var (
		renderer    report.Renderer
		contentType string
	)
	switch format := q.Get("format"); format {
	case "", "md":
		renderer = report.Markdown{Trailer: true}
		contentType = "text/markdown; charset=utf-8"
	case "json":
		renderer = report.JSON{}
		contentType = "application/json"
	case "jsonl":
		renderer = report.JSONL{}
		contentType = "application/x-ndjson"
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want md, json, or jsonl)", format)
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ctx, span := s.rootSpan(ctx, w, "http /v1/report")

	meta := report.Meta{
		Title: "Experiments: paper vs. measured",
		Intro: fmt.Sprintf("Served by bccd from the shared result cache (config %s).", cfg.Canonical()),
	}
	w.Header().Set("Content-Type", contentType)
	cw := &countingWriter{w: w}
	// The renderer's Begin is deferred to the first completed section so
	// that (a) X-Cache-State can be stamped once the first result's cache
	// verdict is known, and (b) a run that fails before producing anything
	// answers a clean JSON error instead of front matter plus a trailer.
	var tracker cacheTracker
	lazy := &lazyRenderer{inner: renderer, onBegin: func() {
		w.Header().Set("X-Cache-State", tracker.state())
	}}
	_, err = s.eng.Stream(ctx, cw, lazy, meta, cfg, only, tracker.observe)
	span.EndErr(err)
	if err != nil {
		// A failure before the first flushed byte is still a clean JSON
		// error; mid-stream, the truncated body plus the trailer line is
		// all we can signal.
		streamError(w, cw, err)
	}
}

// rootSpan begins a synchronous request's trace: a fresh "req-<n>-…"
// trace rooted at the endpoint name, with the trace ID handed back in
// the X-Trace-Id response header so clients (bccload's -trace-sample)
// can fetch the finished tree from /v1/traces/{id}. A tracerless engine
// makes this a no-op returning (ctx, nil).
func (s *server) rootSpan(ctx context.Context, w http.ResponseWriter, name string) (context.Context, *obs.Span) {
	tr := s.eng.Tracer()
	if tr == nil {
		return ctx, nil
	}
	route := strings.TrimPrefix(name, "http /v1/")
	traceID := fmt.Sprintf("req-%d-%s", s.reqSeq.Add(1), route)
	ctx, span := tr.Root(ctx, name, traceID)
	w.Header().Set("X-Trace-Id", traceID)
	return ctx, span
}

// parseConfig reads the shared seed/quick query parameters.
func parseConfig(q url.Values) (engine.Config, error) {
	cfg := engine.Config{Seed: 1}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad seed %q", v)
		}
		cfg.Seed = seed
	}
	if v := q.Get("quick"); v != "" {
		quick, err := strconv.ParseBool(v)
		if err != nil {
			return cfg, fmt.Errorf("bad quick %q", v)
		}
		cfg.Quick = quick
	}
	return cfg, nil
}

// parseRestriction reads the optional protocols/families/sizes query
// parameters (comma lists, like the experiments CLI flags) and narrows
// the grid to them. Restricted runs share cache entries with full runs
// cell for cell, so a targeted large-n slice — one 8192 flood cell —
// never recomputes (or pre-warms) the rest of the ladder.
func parseRestriction(grid engine.GridSpec, q url.Values) (engine.GridSpec, error) {
	split := func(key string) []string {
		if v := q.Get(key); v != "" {
			return strings.Split(v, ",")
		}
		return nil
	}
	protocols, families := split("protocols"), split("families")
	var sizes []int
	if v := q.Get("sizes"); v != "" {
		for _, s := range strings.Split(v, ",") {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				// Non-positive sizes would only fail later inside the
				// family builders as a 500; they are a bad request.
				return grid, fmt.Errorf("bad sizes %q", v)
			}
			sizes = append(sizes, n)
		}
	}
	if protocols == nil && families == nil && sizes == nil {
		return grid, nil
	}
	return grid.Restrict(protocols, families, sizes)
}

// sweeps serves the sweep grids (E17/E18). Without ?grid= it lists the
// registered grids; with one it runs the grid through the per-cell
// cache and renders it as md, json, jsonl or csv — the row formats
// (jsonl, csv) stream each row as soon as its cell-order prefix
// completes, so large grids deliver incrementally. Optional
// ?protocols=/?families=/?sizes= comma lists narrow the grid to a
// targeted slice (same semantics as the experiments CLI flags). Like
// /v1/report, the run is admission-gated and request-scoped: a hung-up
// client cancels its own sweep within one simulated round, and the
// completed cells stay cached for the retry.
func (s *server) sweeps(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	gridID := q.Get("grid")
	if gridID == "" {
		type gridInfo struct {
			ID        string   `json:"id"`
			Title     string   `json:"title"`
			PaperRef  string   `json:"paper_ref"`
			Protocols []string `json:"protocols"`
			Families  []string `json:"families"`
			Sizes     []int    `json:"sizes"`
			Seeds     int      `json:"seeds"`
		}
		out := []gridInfo{}
		for _, g := range s.eng.Grids() {
			out = append(out, gridInfo{ID: g.ID, Title: g.Title, PaperRef: g.PaperRef,
				Protocols: g.Protocols, Families: g.Families, Sizes: g.Sizes, Seeds: g.Seeds})
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	grid, ok := s.eng.LookupGrid(gridID)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown grid %q", gridID)
		return
	}
	cfg, err := parseConfig(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if grid, err = parseRestriction(grid, q); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	format := q.Get("format")
	switch format {
	case "", "md", "json", "jsonl", "csv":
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want md, json, jsonl, or csv)", format)
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ctx, span := s.rootSpan(ctx, w, "http /v1/sweeps")
	span.SetStr("grid", gridID)
	var reqErr error
	defer func() { span.EndErr(reqErr) }()

	var tracker cacheTracker
	switch format {
	case "", "md":
		// Run first, set the content type only once the result is known:
		// a failed run answers as a JSON 500, not a markdown-typed error.
		// Buffered formats get an exact X-Cache-State — every cell has
		// reported by the time the header is stamped.
		res, err := s.eng.RunGrid(ctx, grid, cfg, tracker.observe, nil)
		if err != nil {
			reqErr = err
			writeError(w, errorStatus(err), "%v", err)
			return
		}
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
		w.Header().Set("X-Cache-State", tracker.state())
		if err := res.WriteMarkdown(w); err != nil {
			return
		}
	case "json":
		res, err := s.eng.RunGrid(ctx, grid, cfg, tracker.observe, nil)
		if err != nil {
			reqErr = err
			writeError(w, errorStatus(err), "%v", err)
			return
		}
		w.Header().Set("X-Cache-State", tracker.state())
		writeJSON(w, http.StatusOK, res)
	case "jsonl":
		// Streaming: the content type is set optimistically, but rows
		// write through a counting writer so a failure before the first
		// row still downgrades to a clean JSON 500 (headers unsent).
		w.Header().Set("Content-Type", "application/x-ndjson")
		cw := &countingWriter{w: w}
		sink := headerSink(w, &tracker, flushingSink(w, grid.JSONLSink(cw)))
		if _, err := s.eng.RunGrid(ctx, grid, cfg, tracker.observe, sink); err != nil {
			reqErr = err
			streamError(w, cw, err)
		}
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		cw := &countingWriter{w: w}
		sink, flush, err := grid.CSVSink(cw)
		if err != nil {
			// The header record never left the csv buffer: answer a real
			// 500 instead of a silently empty 200.
			reqErr = err
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		_, runErr := s.eng.RunGrid(ctx, grid, cfg, tracker.observe, headerSink(w, &tracker, flushingSink(w, sink)))
		if runErr == nil {
			runErr = flush()
		} else if cw.n > 0 {
			// Mid-stream failure: push the streamed rows out before the
			// trailer. (With zero bytes delivered the buffered header is
			// deliberately dropped so the JSON 500 stays clean.)
			flush()
		}
		if runErr != nil {
			reqErr = runErr
			streamError(w, cw, runErr)
		}
	}
}

func (s *server) specs(w http.ResponseWriter, r *http.Request) {
	type specInfo struct {
		ID       string `json:"id"`
		Title    string `json:"title"`
		PaperRef string `json:"paper_ref"`
		Key      string `json:"key"`
	}
	var out []specInfo
	for _, sp := range s.eng.Specs() {
		out = append(out, specInfo{ID: sp.ID, Title: sp.Title, PaperRef: sp.PaperRef, Key: sp.Key()})
	}
	writeJSON(w, http.StatusOK, out)
}

// breakerSnapshot returns the store circuit breaker's state for the
// health endpoints, or nil when the server runs uncached.
func (s *server) breakerSnapshot() *results.HealthSnapshot {
	st := s.eng.Store()
	if st == nil {
		return nil
	}
	snap := st.Health().Snapshot()
	return &snap
}

func (s *server) health(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		Status     string                  `json:"status"`
		Executions int64                   `json:"executions"`
		Cache      *results.Stats          `json:"cache,omitempty"`
		CacheDir   string                  `json:"cache_dir,omitempty"`
		Breaker    *results.HealthSnapshot `json:"breaker,omitempty"`
	}{Status: "ok", Executions: s.eng.Executions()}
	if st := s.eng.Store(); st != nil {
		stats := st.Stats()
		resp.Cache = &stats
		resp.CacheDir = st.Dir()
		resp.Breaker = s.breakerSnapshot()
	}
	writeJSON(w, http.StatusOK, resp)
}

// readyz is the load-balancer signal: 200 while accepting work, 503
// once draining — distinct from /healthz, which keeps answering 200
// during drain so the process is not killed mid-drain by a liveness
// probe. The store breaker's state rides along as detail: an open
// breaker means degraded (compute-through) service, not unreadiness —
// bccd still answers correctly, just slower, so it must keep its
// place in the rotation.
func (s *server) readyz(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		Status string                  `json:"status"`
		Store  *results.HealthSnapshot `json:"store,omitempty"`
	}{Store: s.breakerSnapshot()}
	if s.ready.Load() {
		resp.Status = "ready"
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp.Status = "draining"
	writeJSON(w, http.StatusServiceUnavailable, resp)
}

func (s *server) metricsHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}
