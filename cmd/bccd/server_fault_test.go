package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bcclique/internal/engine"
	"bcclique/internal/harness"
	"bcclique/internal/obs"
	"bcclique/internal/parallel"
	"bcclique/internal/results"
)

// getState fetches url and returns (status, X-Cache-State).
func getState(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache-State")
}

// TestCacheStateHeader pins the satellite contract: /v1/report and
// /v1/sweeps answer X-Cache-State: miss cold and hit warm, in both
// buffered and streamed formats.
func TestCacheStateHeader(t *testing.T) {
	ts, _ := testServer(t)
	for _, url := range []string{
		ts.URL + "/v1/report?only=E13&quick=1&seed=1&format=md",
		ts.URL + "/v1/report?only=E13&quick=1&seed=2&format=jsonl",
		ts.URL + "/v1/sweeps?grid=E18&quick=1&seed=1&format=json",
		ts.URL + "/v1/sweeps?grid=E18&quick=1&seed=2&format=csv",
	} {
		code, state := getState(t, url)
		if code != http.StatusOK || state != "miss" {
			t.Errorf("cold GET %s = %d %q, want 200 miss", url, code, state)
		}
		code, state = getState(t, url)
		if code != http.StatusOK || state != "hit" {
			t.Errorf("warm GET %s = %d %q, want 200 hit", url, code, state)
		}
	}
}

// brokenBackend fails every operation: the store's circuit breaker diet.
type brokenBackend struct{}

var errBroken = errors.New("backend is on fire")

func (brokenBackend) Get(context.Context, string) ([]byte, error) { return nil, errBroken }
func (brokenBackend) Put(context.Context, string, []byte) error   { return errBroken }
func (brokenBackend) Delete(context.Context, string) error        { return errBroken }

// TestDegradedModeServing is the degraded-mode acceptance test: with
// the store backend hard-down, requests keep answering 200 (slower,
// compute-through), the response says X-Cache-State: bypass, and the
// breaker's open state is visible on /readyz, /healthz, and /metrics —
// without flipping readiness.
func TestDegradedModeServing(t *testing.T) {
	health := results.NewHealth(results.HealthConfig{
		Window: 8, MinSamples: 2, Threshold: 0.5, Cooldown: time.Hour,
	})
	store := results.New(brokenBackend{}, results.WithHealth(health))
	eng := harness.NewEngine(engine.WithStore(store))
	ts := httptest.NewServer(newServer(eng, defaultServerConfig()).routes())
	defer ts.Close()

	// First request: breaker still closed, so the failed get and the
	// failed put each land an error sample (2 ≥ MinSamples at 100% error
	// rate) and trip it. The request itself still succeeds as a miss.
	code, state := getState(t, ts.URL+"/v1/report?only=E13&quick=1&seed=1")
	if code != http.StatusOK || state != "miss" {
		t.Fatalf("tripping request = %d %q, want 200 miss", code, state)
	}
	if got := health.State(); got != results.StateOpen {
		t.Fatalf("breaker = %q after an all-errors window, want open", got)
	}

	// Open breaker: same request recomputes and says so.
	code, state = getState(t, ts.URL+"/v1/report?only=E13&quick=1&seed=1")
	if code != http.StatusOK || state != "bypass" {
		t.Errorf("degraded request = %d %q, want 200 bypass", code, state)
	}
	if eng.Executions() != 2 {
		t.Errorf("executions = %d, want 2 (bypass recomputes)", eng.Executions())
	}

	// Degraded is not unready: /readyz stays 200 and carries the detail.
	var ready struct {
		Status string                  `json:"status"`
		Store  *results.HealthSnapshot `json:"store"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusOK {
		t.Fatalf("/readyz = %d with an open breaker, want 200 (degraded, not unready)", code)
	}
	if ready.Status != "ready" || ready.Store == nil || ready.Store.State != results.StateOpen {
		t.Errorf("/readyz = %+v, want ready with store state open", ready)
	}

	var healthz struct {
		Breaker *results.HealthSnapshot `json:"breaker"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &healthz); code != http.StatusOK {
		t.Fatal("/healthz not 200")
	}
	if healthz.Breaker == nil || healthz.Breaker.State != results.StateOpen {
		t.Errorf("/healthz breaker = %+v, want open", healthz.Breaker)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"bccd_store_breaker_state 1",
		"bccd_store_bypass_total 1",
		"bccd_store_get_errors_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// chaosProfile injects a deterministic 5% mix of transient errors,
// latency and torn writes. It leaves out hang and enospc: those model
// failures the server surfaces rather than absorbs, and internal/fault's
// tests cover them.
const chaosProfile = "error=0.05,latency=0.05:2ms,torn=0.05,seed=7"

// TestChaosRowsMatchCleanStore holds the store's fault contract: a fault
// may cost a recompute, never a failed response or a wrong row. A server
// on a clean store and one on a store under chaosProfile answer the same
// 50 requests, four E13 reports to each E17 sweep; every answer must be
// 200 and the last sweep CSVs byte-identical. One worker fixes the order
// of backend operations, so the same faults fire on every run, and the
// faulted store's counters show that they did.
func TestChaosRowsMatchCleanStore(t *testing.T) {
	defer parallel.SetLimit(parallel.Limit())
	parallel.SetLimit(1)

	serve := func(profile string) (rows string, st results.Stats) {
		store, err := openStore(t.TempDir(), profile, obs.NopLogger())
		if err != nil {
			t.Fatal(err)
		}
		eng := harness.NewEngine(engine.WithStore(store))
		ts := httptest.NewServer(newServer(eng, defaultServerConfig()).routes())
		defer ts.Close()
		for i := 0; i < 50; i++ {
			url := ts.URL + "/v1/report?only=E13&format=json&quick=true&seed=1"
			sweep := i%5 == 4
			if sweep {
				url = ts.URL + "/v1/sweeps?grid=E17&format=csv&quick=true&seed=1"
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("profile %q, request %d: GET %s = %d: %s", profile, i, url, resp.StatusCode, body)
			}
			if sweep {
				rows = string(body)
			}
		}
		return rows, store.Stats()
	}

	clean, _ := serve("")
	if strings.Count(clean, "\n") < 2 {
		t.Fatalf("clean sweep CSV has no rows:\n%s", clean)
	}
	faulted, st := serve(chaosProfile)
	if faulted != clean {
		t.Errorf("sweep rows under faults differ from the clean store's:\n%s\nwant:\n%s", faulted, clean)
	}
	if st.Retries == 0 || st.Quarantined == 0 {
		t.Errorf("faulted store stats %+v: want retries and quarantines, or the faults never fired", st)
	}
}
