package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"bcclique/internal/engine"
	"bcclique/internal/parallel"
	"bcclique/internal/results"
)

// lifecycleServer builds a server (returned alongside its engine and
// the raw *server for drain tests) over a registry with two
// controllable entries:
//
//   - spec SLOW blocks until gate closes or its context is cancelled,
//     so tests can hold admission slots open deterministically;
//   - grid GCAN has 256 cells whose RunCell parks on the sweep context,
//     so client-disconnect tests can observe exactly which cells the
//     engine started before the cancellation landed.
func lifecycleServer(t *testing.T, cfg serverConfig) (*httptest.Server, *engine.Engine, *server, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	slow := engine.Spec{
		ID: "SLOW", Title: "blocks until released", PaperRef: "-",
		Run: func(ctx context.Context, _ engine.Config, _ engine.Params) (*engine.Result, error) {
			select {
			case <-gate:
				return &engine.Result{Claim: "c", Finding: "f"}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	fast := engine.Spec{
		ID: "FAST", Title: "returns immediately", PaperRef: "-",
		Run: func(context.Context, engine.Config, engine.Params) (*engine.Result, error) {
			return &engine.Result{Claim: "c", Finding: "f"}, nil
		},
	}
	sizes := make([]int, 256)
	for i := range sizes {
		sizes[i] = i + 1
	}
	cancelGrid := engine.GridSpec{
		ID: "GCAN", Title: "cancellable grid",
		Protocols: []string{"p"}, Families: []string{"f"},
		Sizes: sizes, Seeds: 1,
		Headers: []string{"n"},
		CellKey: func(string, string) (string, error) { return "k", nil },
		RunCell: func(ctx context.Context, _ engine.Config, c engine.GridCell, _ []int64) ([]string, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New([]engine.Spec{slow, fast}, engine.WithStore(store), engine.WithGrids(cancelGrid))
	srv := newServer(eng, cfg)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() {
		// Unblock any straggling SLOW runs and wait for every job to
		// exit, so none writes into the store tempdir as it is removed.
		srv.cancelJobs()
		ts.Close()
		eng.WaitJobs(context.Background())
	})
	return ts, eng, srv, gate
}

func jsonDecode(r io.Reader, v interface{}) error {
	return json.NewDecoder(r).Decode(v)
}

func postJob(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestQueueFullAnswers429 pins the bounded-admission contract: with the
// queue saturated by in-flight jobs, a new submission is refused with
// 429 and a Retry-After hint instead of piling up, and the slot freed
// by a finished job is immediately grantable again.
func TestQueueFullAnswers429(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.queueCapacity = 1
	ts, eng, _, gate := lifecycleServer(t, cfg)

	resp := postJob(t, ts, `{"only":["SLOW"]}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, body)
	}

	resp = postJob(t, ts, `{"only":["SLOW"]}`)
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429: %s", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(body), "capacity") {
		t.Fatalf("429 body does not explain capacity: %s", body)
	}

	// Synchronous heavy endpoints share the same admission queue.
	r2, err := http.Get(ts.URL + "/v1/report?only=FAST")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("sync report under full queue: status %d, want 429", r2.StatusCode)
	}

	close(gate)
	if err := eng.WaitJobs(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool {
		resp := postJob(t, ts, `{"only":["FAST"]}`)
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode == http.StatusAccepted
	}, "queue slot not released after job finished")
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestClientDisconnectCancelsSweep is the disconnect-cancellation
// acceptance test: a client that hangs up mid-sweep cancels its own
// grid run — started cells observe the cancellation through their
// context, and the engine stops dispatching new cells, visible as
// CellExecutions holding still afterwards.
func TestClientDisconnectCancelsSweep(t *testing.T) {
	// Pin the worker pool well below the 256-cell grid so some cells are
	// provably unstarted when the disconnect lands.
	oldLimit := parallel.Limit()
	parallel.SetLimit(4)
	defer parallel.SetLimit(oldLimit)

	ts, eng, srv, _ := lifecycleServer(t, defaultServerConfig())

	reqCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, ts.URL+"/v1/sweeps?grid=GCAN&format=jsonl", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()

	// Wait until the sweep is demonstrably executing cells, then hang up.
	waitFor(t, 5*time.Second, func() bool { return eng.CellExecutions() > 0 },
		"sweep never started executing cells")
	hangUp()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("request did not return after client disconnect")
	}

	// The client returns as soon as it hangs up; the server notices the
	// disconnect a moment later. The sweep holds its admission slot until
	// RunGrid returns, which requires every parked cell's context to have
	// fired and the pool to unwind — from then on no cell may start.
	waitFor(t, 5*time.Second, func() bool { return srv.queue.Depth() == 0 },
		"sweep handler never returned after client disconnect")
	after := eng.CellExecutions()
	if after >= 256 {
		t.Fatalf("engine executed %d cells despite cancellation with 4 workers", after)
	}
	time.Sleep(25 * time.Millisecond)
	if now := eng.CellExecutions(); now != after {
		t.Fatalf("cells kept executing after disconnect: %d -> %d", after, now)
	}
}

// TestDrainLifecycle pins the graceful-shutdown choreography: once
// draining, /readyz answers 503 while /healthz stays 200, new heavy
// work is refused as 503, the in-flight job gets to finish cleanly, and
// Drain returns once it has.
func TestDrainLifecycle(t *testing.T) {
	ts, eng, srv, gate := lifecycleServer(t, defaultServerConfig())

	resp := postJob(t, ts, `{"only":["SLOW"]}`)
	var job engine.Job
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if err := jsonDecode(resp.Body, &job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	drained := make(chan error, 1)
	srv.StartDrain()
	go func() { drained <- srv.Drain(context.Background()) }()

	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz during drain: %d, want 200", code)
	}
	resp = postJob(t, ts, `{"only":["FAST"]}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d, want 503", resp.StatusCode)
	}

	// The in-flight job is still running — drain must be waiting on it.
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v before the in-flight job finished", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not return after the job finished")
	}
	final, err := eng.WaitJob(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != engine.JobDone {
		t.Fatalf("drained job status %q, want done", final.Status)
	}
}

// TestDrainDeadlineCancelsJobs pins the hard half of drain: when the
// deadline passes with a job still running, Drain reports the deadline
// and cancels the job context, and the job lands in status cancelled —
// not failed — with no partial cells cached.
func TestDrainDeadlineCancelsJobs(t *testing.T) {
	ts, eng, srv, _ := lifecycleServer(t, defaultServerConfig())

	resp := postJob(t, ts, `{"only":["SLOW"]}`)
	var job engine.Job
	if err := jsonDecode(resp.Body, &job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("drain under a blocked job returned nil, want deadline error")
	}
	final, err := eng.WaitJob(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != engine.JobCancelled {
		t.Fatalf("hard-cancelled job status %q, want cancelled", final.Status)
	}
	if ts.URL == "" {
		t.Fatal("unreachable")
	}
}

// TestMetricsMatchObservedRun scrapes /metrics after a known request
// sequence and asserts the counters say exactly what happened: two
// /v1/report requests, one execution, one cache hit, matching latency
// histogram count, and live gauges for readiness and queue capacity.
func TestMetricsMatchObservedRun(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.queueCapacity = 3
	ts, _, _, _ := lifecycleServer(t, cfg)

	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/report?only=FAST&format=json")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report %d: status %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		`bccd_requests_total{endpoint="/v1/report",code="200"} 2`,
		`bccd_request_duration_seconds_count{endpoint="/v1/report"} 2`,
		"bccd_spec_executions_total 1",
		"bccd_cache_hits_total 1",
		"bccd_cache_misses_total 1",
		"bccd_ready 1",
		"bccd_queue_capacity 3",
		"bccd_queue_depth 0",
		"bccd_jobs_inflight 0",
		// The cell residency gauges: idle between requests, the running
		// cell count reads zero; the peak-resident watermark is merely
		// present (its value depends on what already ran in-process).
		"bccd_cells_running 0",
		"bccd_cell_peak_resident_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestMethodNotAllowed pins the 405 hygiene: unsupported methods get a
// JSON 405 listing the allowed methods in the Allow header.
func TestMethodNotAllowed(t *testing.T) {
	ts, _, _, _ := lifecycleServer(t, defaultServerConfig())

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/report", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/report: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
		t.Fatalf("Allow = %q, want \"GET, HEAD\"", allow)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("405 content type %q, want JSON", ct)
	}
	if !strings.Contains(string(body), "not allowed") {
		t.Errorf("405 body: %s", body)
	}

	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/jobs: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET, POST, HEAD" {
		t.Fatalf("Allow = %q, want \"GET, POST, HEAD\"", allow)
	}
}

// TestBodyLimit pins MaxBytesReader: an oversized POST body answers 413
// without the engine ever seeing the job.
func TestBodyLimit(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.maxBodyBytes = 64
	ts, eng, _, _ := lifecycleServer(t, cfg)

	big := fmt.Sprintf(`{"only":["FAST"],"quick":%s true}`, strings.Repeat(" ", 200))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(big)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413: %s", resp.StatusCode, body)
	}
	if got := len(eng.Jobs()); got != 0 {
		t.Fatalf("oversized submission created %d jobs", got)
	}
}

// TestRateLimit pins the per-client token bucket: burst requests pass,
// the next is a 429 with Retry-After, and monitoring endpoints are
// exempt.
func TestRateLimit(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.rateLimit = 0.001 // effectively no refill within the test
	cfg.rateBurst = 2
	ts, _, _, _ := lifecycleServer(t, cfg)

	for i := 0; i < 2; i++ {
		if code := getJSON(t, ts.URL+"/v1/specs", nil); code != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/specs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("rate-limit Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	// Monitoring endpoints must stay reachable for an over-limit client.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s for rate-limited client: status %d", path, resp.StatusCode)
		}
	}
}

// TestRequestTimeout pins the per-request deadline: a synchronous
// computation that outlives it answers 504 instead of hanging (the
// non-streaming sweep formats, which hold their response until the run
// completes, are where the clean 504 is reachable).
func TestRequestTimeout(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.requestTimeout = 30 * time.Millisecond
	ts, _, _, _ := lifecycleServer(t, cfg)

	code, ct, body := get(t, ts.URL+"/v1/sweeps?grid=GCAN&format=json")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out sweep: status %d, want 504: %s", code, body)
	}
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("504 content type %q, want JSON", ct)
	}
	if !strings.Contains(body, "deadline") {
		t.Errorf("504 body: %s", body)
	}
}
