package harness

import (
	"bytes"
	"strings"
	"testing"

	"bcclique/internal/report"
)

func TestRegistryComplete(t *testing.T) {
	exps := All()
	if len(exps) != 16 {
		t.Fatalf("scalar registry has %d experiments, want 16", len(exps))
	}
	seen := make(map[string]bool)
	for i, e := range exps {
		if e.ID == "" || e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Errorf("experiment %d incomplete: %+v", i, e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	grids := Grids()
	if len(grids) != 2 {
		t.Fatalf("grid registry has %d grids, want 2", len(grids))
	}
	for _, g := range grids {
		if g.ID == "" || g.Title == "" || g.PaperRef == "" || g.RunCell == nil || g.CellKey == nil {
			t.Errorf("grid %s incomplete", g.ID)
		}
		if seen[g.ID] {
			t.Errorf("grid ID %s collides with a scalar experiment", g.ID)
		}
		seen[g.ID] = true
		if len(g.Protocols) == 0 || len(g.Families) == 0 || len(g.Sizes) == 0 || g.Seeds == 0 {
			t.Errorf("grid %s has an empty axis", g.ID)
		}
	}
}

// TestRunAllQuick executes the whole quick suite and sanity-checks the
// report structure. This doubles as the integration test of every
// package in the repository.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite still takes a few seconds")
	}
	var buf bytes.Buffer
	results, err := NewEngine().Stream(t.Context(), &buf, report.Markdown{}, report.Meta{}, Config{Quick: true, Seed: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 18 {
		t.Fatalf("ran %d experiments, want 18 (E01–E16 + the E17/E18 sweep grids)", len(results))
	}
	out := buf.String()
	for _, r := range results {
		if r.Finding == "" || r.Claim == "" {
			t.Errorf("%s: empty claim or finding", r.ID)
		}
		if len(r.Tables) == 0 {
			t.Errorf("%s: no tables", r.ID)
		}
		if !strings.Contains(out, "## "+r.ID) {
			t.Errorf("report missing section %s", r.ID)
		}
	}
	// Spot-check key findings.
	if !strings.Contains(out, "0 violations") {
		t.Error("E01/E09 should report 0 violations")
	}
}

func TestRunAllFilter(t *testing.T) {
	var buf bytes.Buffer
	results, err := NewEngine().Stream(t.Context(), &buf, report.Markdown{}, report.Meta{}, Config{Quick: true, Seed: 1}, []string{"E13"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != "E13" {
		t.Fatalf("filter returned %d results", len(results))
	}
}
