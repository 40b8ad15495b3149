package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bcclique/internal/engine"
	"bcclique/internal/harness"
	"bcclique/internal/obs"
	"bcclique/internal/results"
)

// tracedServer builds a server whose engine traces into a fresh ring,
// with the server's structured log captured in the returned buffer.
// The engine serves the real registry (E13 is the cheap spec the trace
// tests exercise) over a temp-dir cache.
func tracedServer(t *testing.T) (*httptest.Server, *server, *syncBuffer) {
	t.Helper()
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	buf := &syncBuffer{}
	eng := harness.NewEngine(engine.WithStore(store), engine.WithTracer(obs.New(1024)))
	cfg := defaultServerConfig()
	cfg.logger = obs.NewLogger(buf, "bccd")
	srv := newServer(eng, cfg)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() {
		srv.cancelJobs()
		ts.Close()
		srv.eng.WaitJobs(context.Background())
	})
	return ts, srv, buf
}

// syncBuffer is a mutex-guarded bytes.Buffer so concurrent slog writes
// and test reads don't race.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logRecords decodes every JSON line the server logged so far.
func (b *syncBuffer) logRecords(t *testing.T) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		recs = append(recs, m)
	}
	return recs
}

// TestTraceEndpoints drives the full trace-serving loop: a traced
// synchronous request hands back X-Trace-Id, the trace is listed at
// /v1/traces, and /v1/traces/{id} serves both JSON and a well-formed
// Chrome trace_event array.
func TestTraceEndpoints(t *testing.T) {
	ts, _, _ := tracedServer(t)

	resp, err := http.Get(ts.URL + "/v1/report?only=E13&quick=1&seed=1&format=md")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("traced request returned no X-Trace-Id")
	}

	var sums []struct {
		TraceID string `json:"trace_id"`
		Root    string `json:"root"`
		Spans   int    `json:"spans"`
	}
	if code := getJSON(t, ts.URL+"/v1/traces", &sums); code != http.StatusOK {
		t.Fatalf("/v1/traces status %d", code)
	}
	found := false
	for _, s := range sums {
		if s.TraceID == traceID {
			found = true
			if s.Root != "http /v1/report" {
				t.Errorf("trace root = %q", s.Root)
			}
			if s.Spans < 2 {
				t.Errorf("trace has %d spans, want the request root plus the spec tree", s.Spans)
			}
		}
	}
	if !found {
		t.Fatalf("trace %s not listed in %+v", traceID, sums)
	}

	var spans []struct {
		TraceID  string         `json:"trace_id"`
		SpanID   string         `json:"span_id"`
		ParentID string         `json:"parent_id"`
		Name     string         `json:"name"`
		Attrs    map[string]any `json:"attrs"`
	}
	if code := getJSON(t, ts.URL+"/v1/traces/"+traceID, &spans); code != http.StatusOK {
		t.Fatalf("/v1/traces/%s status %d", traceID, code)
	}
	if len(spans) < 2 || spans[0].Name != "http /v1/report" || spans[0].ParentID != "" {
		t.Fatalf("unexpected span tree head: %+v", spans)
	}
	for _, sp := range spans {
		if sp.TraceID != traceID {
			t.Errorf("span %s carries trace %s", sp.Name, sp.TraceID)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/traces/" + traceID + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome format status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("chrome Content-Type %q", ct)
	}
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	if len(events) != len(spans) {
		t.Errorf("chrome trace has %d events for %d spans", len(events), len(spans))
	}
	for _, ev := range events {
		if ev.Ph != "X" || ev.PID != 1 {
			t.Errorf("malformed chrome event: %+v", ev)
		}
	}
}

// TestTraceEndpointsDisabled pins the tracing-off contract: without a
// tracer both endpoints answer 404 (distinguishable from "no traces
// yet", which is a 200 with an empty array), and traced-request
// plumbing degrades to no X-Trace-Id rather than an error.
func TestTraceEndpointsDisabled(t *testing.T) {
	ts, _ := testServer(t) // no tracer
	for _, path := range []string{"/v1/traces", "/v1/traces/whatever"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusNotFound {
			t.Errorf("GET %s with tracing disabled: status %d, want 404", path, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/report?only=E13&quick=1&seed=1&format=md")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status %d", resp.StatusCode)
	}
	if id := resp.Header.Get("X-Trace-Id"); id != "" {
		t.Errorf("untraced server set X-Trace-Id %q", id)
	}
}

// TestTraceNotFoundAndBadFormat covers the remaining error shapes of
// /v1/traces/{id}: an unknown (or evicted) trace ID is 404, an unknown
// format is 400.
func TestTraceNotFoundAndBadFormat(t *testing.T) {
	ts, _, _ := tracedServer(t)
	if code := getJSON(t, ts.URL+"/v1/traces/no-such-trace", nil); code != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", code)
	}

	resp, err := http.Get(ts.URL + "/v1/report?only=E13&quick=1&seed=1&format=md")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	traceID := resp.Header.Get("X-Trace-Id")
	if code := getJSON(t, ts.URL+"/v1/traces/"+traceID+"?format=svg", nil); code != http.StatusBadRequest {
		t.Errorf("bad format: status %d, want 400", code)
	}
}

// TestJobTraceID pins the async contract: a submitted job's X-Trace-Id
// is the job ID itself, and once the job completes its span tree is
// fetchable at /v1/traces/{job id}.
func TestJobTraceID(t *testing.T) {
	ts, srv, _ := tracedServer(t)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"only":["E13"],"quick":true,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != job.ID {
		t.Errorf("X-Trace-Id = %q, want job ID %q", got, job.ID)
	}
	// Spans land in the ring as they end, leaves first (the store.get
	// span ends long before the job root), so poll until the completed
	// tree — root span first in pre-order — is fetchable.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var spans []struct {
			Name string `json:"name"`
		}
		// Until the first span ends the trace is a 404 error object, so
		// only a 200 body decodes as a span list.
		resp, err := http.Get(ts.URL + "/v1/traces/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		if len(spans) > 0 && spans[0].Name == "job" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("completed job trace (root span first) never appeared at /v1/traces/{job}")
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = srv
}

// TestCellMetricsFromSpans checks the OnEnd bridge from trace records
// to /metrics: after a sweep runs, the per-cell histograms carry
// protocol×family samples.
func TestCellMetricsFromSpans(t *testing.T) {
	ts, _, _ := tracedServer(t)
	resp, err := http.Get(ts.URL + "/v1/sweeps?grid=E17&format=csv&quick=1&seed=1&protocols=flood-b1&families=two-cycle&sizes=16")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		`bccd_cell_seconds_count{protocol="flood-b1",family="two-cycle"}`,
		`bccd_cell_rounds_count{protocol="flood-b1",family="two-cycle"}`,
		`bccd_cell_bits_count{protocol="flood-b1",family="two-cycle"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestRejectionLogging pins satellite 3: shed requests leave structured
// records naming the client, route, and queue depth — for all three
// rejection reasons (queue_full, draining, rate_limit).
func TestRejectionLogging(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	buf := &syncBuffer{}
	cfg := defaultServerConfig()
	cfg.queueCapacity = 1
	cfg.logger = obs.NewLogger(buf, "bccd")
	srv := newServer(harness.NewEngine(engine.WithStore(store)), cfg)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() {
		srv.cancelJobs()
		ts.Close()
		srv.eng.WaitJobs(context.Background())
	})

	// Hold the only admission slot so the next heavy request is shed.
	release, err := srv.queue.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/v1/report?only=E13", nil); code != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", code)
	}
	release()

	srv.StartDrain()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"only":["E13"]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d, want 503", resp.StatusCode)
	}

	byReason := make(map[string]map[string]any)
	for _, rec := range buf.logRecords(t) {
		if rec["msg"] == "request rejected" {
			byReason[rec["reason"].(string)] = rec
		}
	}
	for reason, route := range map[string]string{
		"queue_full": "/v1/report",
		"draining":   "/v1/jobs",
	} {
		rec, ok := byReason[reason]
		if !ok {
			t.Errorf("no %q rejection record in log:\n%s", reason, buf.String())
			continue
		}
		for _, field := range []string{"client", "route", "queue_depth", "component"} {
			if _, ok := rec[field]; !ok {
				t.Errorf("%s rejection record missing %s: %v", reason, field, rec)
			}
		}
		if got := rec["route"]; got != route {
			t.Errorf("%s rejection route = %v, want %s", reason, got, route)
		}
	}
}

// TestDrainHardCancelLogging pins the other half of satellite 3: when
// the drain deadline passes with jobs still running, the hard-cancel
// leaves an error-level record with the active job count.
func TestDrainHardCancelLogging(t *testing.T) {
	cfg := defaultServerConfig()
	buf := &syncBuffer{}
	cfg.logger = obs.NewLogger(buf, "bccd")
	ts, _, srv, gate := lifecycleServer(t, cfg)
	defer close(gate)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"only":["SLOW"]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	// A tiny drain deadline forces the hard-cancel path at once.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.Drain(drainCtx); err == nil {
		t.Fatal("Drain with expired deadline and a running job returned nil")
	}
	var sawCancel bool
	for _, rec := range buf.logRecords(t) {
		if rec["msg"] == "drain deadline exceeded; hard-cancelling in-flight jobs" {
			sawCancel = true
			if rec["level"] != "ERROR" {
				t.Errorf("hard-cancel logged at %v, want ERROR", rec["level"])
			}
			if _, ok := rec["active_jobs"]; !ok {
				t.Errorf("hard-cancel record missing active_jobs: %v", rec)
			}
		}
	}
	if !sawCancel {
		t.Errorf("no hard-cancel record in log:\n%s", buf.String())
	}
}

// TestConcurrentTracingHammer exercises the tracer's shared state the
// way production does: many goroutines running traced requests while
// others read /v1/traces and export Chrome traces mid-flight. Its job
// is to give the race detector surface (make serve-race); without
// -race it still shakes out ring-snapshot bugs.
func TestConcurrentTracingHammer(t *testing.T) {
	ts, _, _ := tracedServer(t)
	shots := 12
	if raceEnabled {
		shots = 24
	}
	var wg sync.WaitGroup
	get := func(url string) {
		defer wg.Done()
		resp, err := http.Get(url)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for i := 0; i < shots; i++ {
		wg.Add(3)
		go get(fmt.Sprintf("%s/v1/report?only=E13&quick=1&seed=%d&format=md", ts.URL, i+1))
		go get(ts.URL + "/v1/traces")
		go get(fmt.Sprintf("%s/v1/traces/req-%d-report?format=chrome", ts.URL, i+1))
	}
	wg.Wait()
	var sums []struct {
		TraceID string `json:"trace_id"`
	}
	if code := getJSON(t, ts.URL+"/v1/traces", &sums); code != http.StatusOK || len(sums) == 0 {
		t.Fatalf("after hammer: /v1/traces status %d with %d traces", code, len(sums))
	}
}
