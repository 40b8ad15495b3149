package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bcclique/internal/engine"
	"bcclique/internal/harness"
	"bcclique/internal/parallel"
	"bcclique/internal/report"
	"bcclique/internal/results"
)

func lookupE17(t *testing.T, eng *engine.Engine) engine.GridSpec {
	t.Helper()
	g, ok := eng.LookupGrid("E17")
	if !ok {
		t.Fatal("E17 grid not registered")
	}
	return g
}

// TestGridBitIdenticalAtAnyParallel is the first half of the grid
// acceptance criterion: a full E17 run (5 families × 4 protocols × 3
// sizes in quick mode 2 sizes) produces bit-identical rows at every
// worker count.
func TestGridBitIdenticalAtAnyParallel(t *testing.T) {
	defer parallel.SetLimit(0)
	eng := harness.NewEngine()
	grid := lookupE17(t, eng)
	cfg := engine.Config{Quick: true, Seed: 1}

	var runs []*engine.Result
	for _, workers := range []int{1, 8} {
		parallel.SetLimit(workers)
		res, err := eng.RunGrid(t.Context(), grid, cfg, nil, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		runs = append(runs, res)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Error("grid rows diverge between 1 and 8 workers")
	}
}

// TestGridIncrementalRecompute is the second half of the acceptance
// criterion: re-running a grid with one added size recomputes only the
// new cells — verified by counting actual cell executions, like the
// PR 2 cache test counts spec executions.
func TestGridIncrementalRecompute(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Seed: 1}

	eng1 := harness.NewEngine(engine.WithStore(store))
	small, err := lookupE17(t, eng1).Restrict(nil, nil, []int{8, 12})
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng1.RunGrid(t.Context(), small, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := int64(len(small.Families) * len(small.Protocols) * 2)
	if got := eng1.CellExecutions(); got != wantCells {
		t.Fatalf("cold grid executed %d cells, want %d", got, wantCells)
	}

	// Same grid again: zero recomputed cells, identical rows.
	eng2 := harness.NewEngine(engine.WithStore(store))
	again, err := eng2.RunGrid(t.Context(), small, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng2.CellExecutions(); got != 0 {
		t.Errorf("warm grid executed %d cells, want 0", got)
	}
	if !reflect.DeepEqual(first.Tables, again.Tables) {
		t.Error("cached grid rows diverge from computed rows")
	}

	// One added size: only the new size's cells compute.
	eng3 := harness.NewEngine(engine.WithStore(store))
	grown, err := lookupE17(t, eng3).Restrict(nil, nil, []int{8, 12, 16})
	if err != nil {
		t.Fatal(err)
	}
	// Cells run on concurrent workers, so events arrive concurrently.
	var mu sync.Mutex
	var events []engine.Event
	full, err := eng3.RunGrid(t.Context(), grown, cfg, func(ev engine.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	newCells := int64(len(grown.Families) * len(grown.Protocols))
	if got := eng3.CellExecutions(); got != newCells {
		t.Errorf("grown grid executed %d cells, want only the %d new ones", got, newCells)
	}
	cachedEvents := 0
	for _, ev := range events {
		if ev.Kind == engine.EventCached {
			cachedEvents++
		}
	}
	if got := int64(cachedEvents); got != 2*newCells {
		t.Errorf("grown grid served %d cells from cache, want %d", got, 2*newCells)
	}
	// The old cells' rows survive verbatim inside the grown table.
	oldRows := make(map[string]bool)
	for _, row := range first.Tables[0].Rows {
		oldRows[strings.Join(row, "|")] = true
	}
	found := 0
	for _, row := range full.Tables[0].Rows {
		if oldRows[strings.Join(row, "|")] {
			found++
		}
	}
	if found != len(oldRows) {
		t.Errorf("grown grid preserves %d of %d old rows", found, len(oldRows))
	}
}

// TestGridStreamsRowsInOrder pins the ordered-sink contract: rows
// arrive in deterministic cell order (family-major, then protocol, then
// size) even on a parallel run.
func TestGridStreamsRowsInOrder(t *testing.T) {
	defer parallel.SetLimit(0)
	parallel.SetLimit(8)
	eng := harness.NewEngine()
	grid := lookupE17(t, eng)
	cfg := engine.Config{Quick: true, Seed: 1}
	cells := grid.Cells(cfg)

	var seen []int
	res, err := eng.RunGrid(t.Context(), grid, cfg, nil, func(c engine.GridCell, row []string) error {
		seen = append(seen, c.Index)
		if row[0] != c.Family || row[1] != c.Protocol || row[2] != fmt.Sprint(c.N) {
			t.Errorf("row %v does not match cell %v", row[:3], c)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(cells) {
		t.Fatalf("sink saw %d rows, want %d", len(seen), len(cells))
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("row %d delivered out of order (cell index %d)", i, idx)
		}
	}
	if len(res.Tables[0].Rows) != len(cells) {
		t.Errorf("table has %d rows, want %d", len(res.Tables[0].Rows), len(cells))
	}
}

// TestGridAsRegistrySpec pins the synthesized-spec integration: E17 and
// E18 are regular registry entries, so a streamed report renders them
// and a warm engine serves the whole grid result with zero executions
// of either kind.
func TestGridAsRegistrySpec(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Quick: true, Seed: 1}

	cold := harness.NewEngine(engine.WithStore(store))
	if _, ok := cold.Lookup("E17"); !ok {
		t.Fatal("E17 spec not in registry")
	}
	if _, ok := cold.Lookup("E18"); !ok {
		t.Fatal("E18 spec not in registry")
	}
	var buf bytes.Buffer
	if _, err := cold.Stream(t.Context(), &buf, report.Markdown{}, report.Meta{}, cfg, []string{"E18"}, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "## E18") || !strings.Contains(out, "silent wrong") {
		t.Errorf("E18 section malformed:\n%s", out)
	}
	if !strings.Contains(out, "0 silent wrong answers") {
		t.Errorf("E18 finding should assert zero silent wrong answers:\n%s", out)
	}
	if cold.Executions() != 1 || cold.CellExecutions() == 0 {
		t.Errorf("cold E18: %d spec / %d cell executions", cold.Executions(), cold.CellExecutions())
	}

	warm := harness.NewEngine(engine.WithStore(store))
	if _, err := warm.Run(t.Context(), cfg, []string{"E18"}, nil); err != nil {
		t.Fatal(err)
	}
	if warm.Executions() != 0 || warm.CellExecutions() != 0 {
		t.Errorf("warm E18: %d spec / %d cell executions, want 0/0", warm.Executions(), warm.CellExecutions())
	}
}

// TestGridSizeCapValidation pins registration-time cap validation: a
// cap naming no protocol (which would silently disable the ceiling) or
// sitting below the smallest size (which would silently erase the
// protocol) must refuse to register.
func TestGridSizeCapValidation(t *testing.T) {
	base := engine.GridSpec{
		ID: "EVAL", Title: "cap validation",
		Protocols: []string{"p"}, Families: []string{"f"},
		Sizes: []int{8, 16}, Seeds: 1,
		Headers: []string{"family", "protocol", "n"},
		CellKey: func(string, string) (string, error) { return "k", nil },
		RunCell: func(_ context.Context, _ engine.Config, c engine.GridCell, _ []int64) ([]string, error) {
			return []string{c.Family, c.Protocol, "8"}, nil
		},
	}
	mustPanic := func(name string, g engine.GridSpec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: engine.New accepted a misdeclared grid", name)
			}
		}()
		engine.New(nil, engine.WithGrids(g))
	}
	typo := base
	typo.SizeCaps = map[string]int{"nope": 8}
	mustPanic("unknown protocol", typo)
	tooLow := base
	tooLow.SizeCaps = map[string]int{"p": 4}
	mustPanic("cap below smallest size", tooLow)
	ok := base
	ok.SizeCaps = map[string]int{"p": 8}
	eng := engine.New(nil, engine.WithGrids(ok))
	if cells := ok.Cells(engine.Config{}); len(cells) != 1 {
		t.Errorf("capped grid has %d cells, want 1", len(cells))
	}
	res, err := eng.RunGrid(t.Context(), ok, engine.Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Finding, "minus 1 above declared protocol size ceilings") {
		t.Errorf("finding does not account for capped cells: %q", res.Finding)
	}
}

// TestGridRestrictValidation pins Restrict's axis validation.
func TestGridRestrictValidation(t *testing.T) {
	eng := harness.NewEngine()
	grid := lookupE17(t, eng)
	if _, err := grid.Restrict([]string{"nope"}, nil, nil); err == nil {
		t.Error("Restrict accepted an unknown protocol")
	}
	if _, err := grid.Restrict(nil, []string{"nope"}, nil); err == nil {
		t.Error("Restrict accepted an unknown family")
	}
	sub, err := grid.Restrict([]string{"boruvka"}, []string{"one-cycle"}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if cells := sub.Cells(engine.Config{}); len(cells) != 1 {
		t.Errorf("restricted grid has %d cells, want 1", len(cells))
	}
}

// TestCellResidencyGauges pins the /metrics residency instrumentation:
// the running-cell count returns to zero once a sweep finishes, and the
// peak heap-per-running-cell watermark is set (and monotone) after real
// cells have computed.
func TestCellResidencyGauges(t *testing.T) {
	before := engine.PeakCellResidentBytes()
	eng := harness.NewEngine()
	grid := lookupE17(t, eng)
	if _, err := eng.RunGrid(t.Context(), grid, engine.Config{Quick: true, Seed: 1}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := engine.RunningCells(); got != 0 {
		t.Errorf("RunningCells after sweep = %d, want 0", got)
	}
	after := engine.PeakCellResidentBytes()
	if after <= 0 {
		t.Errorf("PeakCellResidentBytes = %d after computing cells, want > 0", after)
	}
	if after < before {
		t.Errorf("peak watermark went backwards: %d -> %d", before, after)
	}
}
