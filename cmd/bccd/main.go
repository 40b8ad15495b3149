// Command bccd is the experiment job server: an HTTP frontend over the
// experiment engine and the shared content-addressed result cache, so
// many concurrent clients can request experiment results and pay for
// each (spec, config, build) computation exactly once.
//
// Usage:
//
//	bccd [-addr :8371] [-cache-dir DIR|none] [-parallel N]
//	     [-queue N] [-request-timeout D] [-rate-limit RPS] [-rate-burst N]
//	     [-max-body BYTES] [-drain-timeout D] [-trace-buffer N] [-debug-addr ADDR]
//	     [-fault-profile PROFILE]
//
// Endpoints:
//
//	POST /v1/jobs          submit a spec set: {"only":["E05"],"quick":true,"seed":1}
//	GET  /v1/jobs          list submitted jobs (newest first)
//	GET  /v1/jobs/{id}     job status, progress events, and results as JSON
//	GET  /v1/report        render a report: ?only=E05,E07&format=md|json|jsonl&quick=1&seed=1
//	GET  /v1/sweeps        list sweep grids; ?grid=E17&format=md|json|jsonl|csv runs one
//	                       through the per-cell cache (csv/jsonl stream rows in cell order)
//	GET  /v1/specs         the experiment registry (E01–E16 + the E17/E18 grids)
//	GET  /v1/traces        recent traces (ring-buffered); /v1/traces/{id} one span tree
//	                       as JSON, or ?format=chrome for Perfetto/about:tracing
//	GET  /healthz          liveness plus cache statistics (keeps answering 200 during drain)
//	GET  /readyz           readiness: 200 while accepting work, 503 once draining
//	GET  /metrics          Prometheus text-format metrics (stdlib implementation)
//
// Every request and job runs under a span tree (HTTP → job → grid →
// cell → simulated phases) retained in an in-process ring and served at
// /v1/traces; responses carry the trace ID in X-Trace-Id. -trace-buffer 0
// disables tracing entirely. -debug-addr exposes net/http/pprof on a
// separate listener (never the public mux). Logs are JSON lines on
// stderr with trace/span IDs attached where available.
//
// Identical concurrent requests share one computation (single-flight)
// and repeated requests are served hot from the cache with zero
// re-executed experiments.
//
// Serving armor: heavy work (jobs, reports, sweeps) passes a bounded
// admission queue — a full queue answers 429 with Retry-After, never an
// unbounded pile-up. Synchronous computations run under the request
// context bounded by -request-timeout, so a client that disconnects
// cancels its own computation at the next simulated round (completed
// cells stay cached for the retry). -rate-limit enforces a per-client
// token bucket on the /v1 endpoints. On SIGTERM/SIGINT the server
// drains gracefully: /readyz flips to 503, new heavy work is rejected,
// in-flight jobs get -drain-timeout to finish (then are cancelled), and
// the HTTP listener shuts down.
//
// Fault tolerance: the result store verifies every entry against a
// checksummed envelope (corrupt entries are quarantined and recomputed),
// retries transient backend errors with jittered backoff, and degrades
// to compute-through when a circuit breaker over the backend's rolling
// error rate opens — responses then carry X-Cache-State: bypass and stay
// correct, just uncached. -fault-profile wires a deterministic
// fault-injecting layer under the retry decorator for chaos testing:
// 'error=RATE,latency=RATE:DUR,torn=RATE,enospc=RATE,hang=RATE,seed=N'.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bcclique/internal/engine"
	"bcclique/internal/fault"
	"bcclique/internal/harness"
	"bcclique/internal/obs"
	"bcclique/internal/parallel"
	"bcclique/internal/results"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bccd:", err)
		os.Exit(1)
	}
}

func run() error {
	def := defaultServerConfig()
	var (
		addr     = flag.String("addr", ":8371", "listen address")
		cacheDir = flag.String("cache-dir", "", "result cache directory (default: <user cache dir>/bcclique, \"none\" disables caching)")
		par      = flag.Int("parallel", 0, "worker count for the experiment engine (0 = all CPUs)")

		queueCap   = flag.Int("queue", def.queueCapacity, "max concurrently admitted heavy requests (jobs + sync reports/sweeps); excess gets 429 + Retry-After")
		reqTimeout = flag.Duration("request-timeout", def.requestTimeout, "per-request computation deadline for sync endpoints (0 disables)")
		rateLimit  = flag.Float64("rate-limit", def.rateLimit, "per-client requests/second on /v1 endpoints (0 disables)")
		rateBurst  = flag.Int("rate-burst", def.rateBurst, "per-client burst size for -rate-limit")
		maxBody    = flag.Int64("max-body", def.maxBodyBytes, "max POST body size in bytes")
		drainTime  = flag.Duration("drain-timeout", 30*time.Second, "how long in-flight jobs may run after SIGTERM before being cancelled")

		traceBuf  = flag.Int("trace-buffer", obs.DefaultCapacity, "completed spans retained for /v1/traces (0 disables tracing)")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty disables; never exposed on -addr)")

		faultProfile = flag.String("fault-profile", "", "inject deterministic store faults, e.g. 'error=0.05,latency=0.05:2ms,torn=0.05,seed=7' (chaos testing; empty disables)")
	)
	flag.Parse()
	parallel.SetLimit(*par)

	logger := obs.NewLogger(os.Stderr, "bccd")

	store, err := openStore(*cacheDir, *faultProfile, logger)
	if err != nil {
		return err
	}
	var opts []engine.Option
	if store != nil {
		logger.Info("result cache open", "dir", store.Dir())
		opts = append(opts, engine.WithStore(store))
	} else {
		logger.Info("running uncached")
	}
	var tracer *obs.Tracer
	if *traceBuf > 0 {
		tracer = obs.New(*traceBuf)
		opts = append(opts, engine.WithTracer(tracer))
	}
	cfg := serverConfig{
		queueCapacity:  *queueCap,
		requestTimeout: *reqTimeout,
		rateLimit:      *rateLimit,
		rateBurst:      *rateBurst,
		maxBodyBytes:   *maxBody,
		retryAfter:     def.retryAfter,
		logger:         logger,
	}
	srv := newServer(harness.NewEngine(opts...), cfg)

	// The pprof listener is deliberately a second http.Server on its own
	// address: profiling endpoints leak heap contents and must never ride
	// the public mux. Bind -debug-addr to localhost in production.
	if *debugAddr != "" {
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv := &http.Server{Addr: *debugAddr, Handler: debugMux}
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "error", err.Error())
			}
		}()
		defer debugSrv.Close()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.routes()}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "tracing", tracer != nil)
		errCh <- httpSrv.ListenAndServe()
	}()

	// Drain choreography on SIGTERM/SIGINT: flip /readyz so load
	// balancers stop routing here, reject new heavy work, let in-flight
	// jobs finish under the drain deadline (cancelling stragglers at
	// their next simulated round), then close the listener. A second
	// signal kills the process immediately (NotifyContext unregisters
	// after the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("draining", "timeout", drainTime.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTime)
	defer cancel()
	srv.Drain(drainCtx) // logs its own outcome, including the hard-cancel
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		httpSrv.Close()
	}
	logger.Info("stopped")
	return nil
}

// openStore builds bccd's result store from the -cache-dir and
// -fault-profile values; the store is nil when caching is off.
func openStore(cacheDir, faultProfile string, logger *slog.Logger) (*results.Store, error) {
	profile, err := fault.ParseProfile(faultProfile)
	if err != nil {
		return nil, err
	}
	backend, err := results.OpenFlagBackend(cacheDir)
	if backend == nil || err != nil {
		return nil, err
	}
	// Decoration order matters: faults inject below the retry layer so
	// retries absorb injected transients, exactly as they would absorb
	// real ones.
	var b results.Backend = backend
	if faultProfile != "" {
		logger.Warn("fault injection enabled", "profile", faultProfile)
		b = fault.Wrap(b, profile)
	}
	b = results.WithRetry(b, results.DefaultRetryPolicy(), profile.Seed+1)
	return results.New(b, results.WithLogger(logger)), nil
}
