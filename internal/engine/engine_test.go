// Integration tests of the engine over the real harness registry. These
// live in an external test package so they can import internal/harness
// (which itself imports the engine).
package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sync"
	"testing"

	"bcclique/internal/engine"
	"bcclique/internal/harness"
	"bcclique/internal/report"
	"bcclique/internal/results"
)

var elapsedLine = regexp.MustCompile(`\(elapsed: [^)]*\)`)

func normalize(b []byte) string {
	return string(elapsedLine.ReplaceAll(b, []byte("(elapsed: X)")))
}

// TestMarkdownGolden is the byte-compatibility proof of the refactor:
// the engine + Markdown renderer reproduce the pre-refactor RunAll
// section stream byte-for-byte (elapsed times normalized — they were
// nondeterministic before the refactor too) for the quick suite. The
// golden file predates the E17/E18 sweep grids, so the test pins the
// original scalar sections explicitly.
func TestMarkdownGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite")
	}
	want, err := os.ReadFile("testdata/quick_seed1.golden.md")
	if err != nil {
		t.Fatal(err)
	}
	scalar := make([]string, 0, 16)
	for i := 1; i <= 16; i++ {
		scalar = append(scalar, fmt.Sprintf("E%02d", i))
	}
	var buf bytes.Buffer
	eng := harness.NewEngine()
	if _, err := eng.Stream(t.Context(), &buf, report.Markdown{}, report.Meta{}, engine.Config{Quick: true, Seed: 1}, scalar, nil); err != nil {
		t.Fatal(err)
	}
	if got := normalize(buf.Bytes()); got != string(want) {
		t.Errorf("engine markdown diverges from the pre-refactor golden output (%d vs %d bytes)", len(got), len(want))
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				lo := i - 80
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("first divergence at byte %d:\n--- got ---\n%s\n--- want ---\n%s", i, got[lo:i+80], string(want)[lo:i+80])
			}
		}
	}
}

// TestSecondRunZeroExecutions is the cache acceptance test: a second
// engine over the same store performs zero experiment executions and
// returns identical results (elapsed included — it is part of the
// stored entry).
func TestSecondRunZeroExecutions(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"E07", "E13"}
	cfg := engine.Config{Quick: true, Seed: 1}

	cold := harness.NewEngine(engine.WithStore(store))
	var coldBuf bytes.Buffer
	first, err := cold.Stream(t.Context(), &coldBuf, report.Markdown{}, report.Meta{}, cfg, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Executions(); got != int64(len(ids)) {
		t.Fatalf("cold run executed %d specs, want %d", got, len(ids))
	}

	warm := harness.NewEngine(engine.WithStore(store))
	// Specs run on concurrent workers, so events arrive concurrently.
	var mu sync.Mutex
	var events []engine.EventKind
	var warmBuf bytes.Buffer
	second, err := warm.Stream(t.Context(), &warmBuf, report.Markdown{}, report.Meta{}, cfg, ids, func(ev engine.Event) {
		mu.Lock()
		events = append(events, ev.Kind)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Executions(); got != 0 {
		t.Fatalf("warm run executed %d specs, want 0", got)
	}
	for _, kind := range events {
		if kind != engine.EventCached {
			t.Errorf("warm run emitted %q, want only cached events", kind)
		}
	}
	if len(events) != len(ids) {
		t.Errorf("warm run emitted %d events, want %d", len(events), len(ids))
	}
	if !bytes.Equal(coldBuf.Bytes(), warmBuf.Bytes()) {
		t.Error("cached report bytes diverge from the cold run (including elapsed)")
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached results diverge from computed results")
	}

	// A different seed is a different key: the warm engine computes.
	if _, err := warm.Run(t.Context(), engine.Config{Quick: true, Seed: 2}, ids, nil); err != nil {
		t.Fatal(err)
	}
	if got := warm.Executions(); got != int64(len(ids)) {
		t.Errorf("changed seed executed %d specs, want %d", got, len(ids))
	}
}

// TestEngineFailurePropagates checks RunAll-compatible error semantics
// on the engine: the lowest-index failure is reported and the completed
// prefix is still delivered.
func TestEngineFailurePropagates(t *testing.T) {
	boom := errors.New("boom")
	mk := func(id string, fail bool) engine.Spec {
		return engine.Spec{ID: id, Title: id, PaperRef: id,
			Run: func(_ context.Context, _ engine.Config, _ engine.Params) (*engine.Result, error) {
				if fail {
					return nil, boom
				}
				return &engine.Result{Claim: "c", Finding: "f"}, nil
			}}
	}
	eng := engine.New([]engine.Spec{mk("E01", false), mk("E02", true), mk("E03", false)})
	res, err := eng.Run(t.Context(), engine.Config{}, nil, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("want the spec error, got %v", err)
	}
	if len(res) != 1 || res[0].ID != "E01" {
		t.Errorf("want the completed prefix [E01], got %v", res)
	}
}

// TestCachedErrorIsNotStored makes sure a failing spec never poisons the
// cache: the next run retries.
func TestCachedErrorIsNotStored(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	spec := engine.Spec{ID: "F01", Title: "flaky", PaperRef: "-",
		Run: func(_ context.Context, _ engine.Config, _ engine.Params) (*engine.Result, error) {
			calls++
			if calls == 1 {
				return nil, fmt.Errorf("transient")
			}
			return &engine.Result{Claim: "c", Finding: "f"}, nil
		}}
	eng := engine.New([]engine.Spec{spec}, engine.WithStore(store))
	if _, err := eng.Run(t.Context(), engine.Config{}, nil, nil); err == nil {
		t.Fatal("first run should fail")
	}
	res, err := eng.Run(t.Context(), engine.Config{}, nil, nil)
	if err != nil || len(res) != 1 {
		t.Fatalf("second run should succeed, got %v, %v", res, err)
	}
	if calls != 2 {
		t.Errorf("run func called %d times, want 2", calls)
	}
}
