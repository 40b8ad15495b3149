package harness

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"testing"

	"bcclique/internal/algorithms"
	"bcclique/internal/bcc"
	"bcclique/internal/engine"
	"bcclique/internal/family"
	"bcclique/internal/parallel"
	"bcclique/internal/report"
)

// TestLargeNSweepRowMatchesSummarizedForm is the large-n smoke test: a
// 4096-vertex two-cycle E17 cell computed through the memory-bounded
// sweep path (no transcripts, runner-side round accounting) must equal,
// column for column, the row derived from a full transcript-recording
// run of the same algorithm on the same instance.
func TestLargeNSweepRowMatchesSummarizedForm(t *testing.T) {
	if raceEnabled {
		t.Skip("4096-vertex simulation is disproportionate under the race detector")
	}
	if testing.Short() {
		t.Skip("large-n smoke test skipped in -short mode")
	}
	const n = 4096
	cfg := engine.Config{Seed: 1}
	seeds := []int64{parallel.DeriveSeed(cfg.Seed, 0)}
	cell := engine.GridCell{Protocol: "boruvka", Family: "two-cycle", N: n, Seeds: len(seeds)}

	row, err := runE17Cell(context.Background(), cfg, cell, seeds)
	if err != nil {
		t.Fatal(err)
	}

	// Independent recomputation through the full-memory path.
	fam, ok := family.Lookup("two-cycle")
	if !ok {
		t.Fatal("two-cycle family missing")
	}
	g, err := fam.Build(n, seeds[0])
	if err != nil {
		t.Fatal(err)
	}
	idBits := max(1, bits.Len(uint(n-1)))
	algo, err := algorithms.NewBoruvka(idBits)
	if err != nil {
		t.Fatal(err)
	}
	in, err := bcc.NewKT1(bcc.SequentialIDs(n), g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bcc.Run(in, algo) // full transcripts retained
	if err != nil {
		t.Fatal(err)
	}

	// Cross-check the runner's cost accounting against the transcripts.
	transcriptBits := 0
	for v := range res.Transcripts {
		for _, m := range res.Transcripts[v].Sent {
			transcriptBits += int(m.Len)
		}
	}
	if transcriptBits != res.TotalBits {
		t.Fatalf("transcript bits %d != TotalBits %d", transcriptBits, res.TotalBits)
	}

	// The two-cycle is disconnected and boruvka labels exactly, so the
	// cell is correct on its single seed.
	want := []string{
		"two-cycle",
		"boruvka",
		strconv.Itoa(n),
		strconv.Itoa(algo.Bandwidth()),
		report.FormatFloat(float64(res.Rounds)),
		report.FormatFloat(float64(res.TotalBits)),
		report.FormatFloat(float64(res.TotalBits) / float64(res.Rounds)),
		report.FormatFloat(float64(res.Rounds) / math.Log2(float64(n))),
		fmt.Sprintf("%d/%d", 1, 1),
	}
	if len(row) != len(want) {
		t.Fatalf("row has %d columns, want %d", len(row), len(want))
	}
	for i := range want {
		if row[i] != want[i] {
			t.Errorf("column %d: sweep row %q, full-memory form %q", i, row[i], want[i])
		}
	}
	if res.Verdict != bcc.VerdictNo {
		t.Errorf("two-cycle verdict = %v, want NO", res.Verdict)
	}
}

// TestGridSizeLadders pins the extended size axes and the feasibility
// ceilings: both grids climb to n = 32768 for the bit-plane flood-b1,
// the pre-existing sizes survive unchanged at the front of the ladder
// (their cells keep their cached content addresses), and every capped
// protocol — including the family-scoped flood-b1@barbell ceiling —
// gets no cells above its declared ceiling.
func TestGridSizeLadders(t *testing.T) {
	for _, tc := range []struct {
		id         string
		wantPrefix []int
		tops       map[string]int // expected per-protocol ladder top
	}{
		{"E17", []int{16, 32, 64}, map[string]int{
			"flood-b1": 32768, "boruvka": 16384, "kt0-exchange": 32768, "sketch-a2": 2048,
		}},
		// E18's ladder has no 2048 rung, so the sketch protocols (cap
		// 2048) top out at its 1024 rung.
		{"E18", []int{16, 32}, map[string]int{
			"flood-b1": 32768, "boruvka": 16384, "sketch-a1": 1024, "sketch-a2": 1024,
		}},
	} {
		var grid engine.GridSpec
		found := false
		for _, g := range Grids() {
			if g.ID == tc.id {
				grid, found = g, true
			}
		}
		if !found {
			t.Fatalf("%s not registered", tc.id)
		}
		for i, n := range tc.wantPrefix {
			if grid.Sizes[i] != n {
				t.Errorf("%s sizes %v do not start with the original %v", tc.id, grid.Sizes, tc.wantPrefix)
				break
			}
		}
		if top := grid.Sizes[len(grid.Sizes)-1]; top != 32768 {
			t.Errorf("%s ladder tops out at %d, want 32768", tc.id, top)
		}
		maxN := map[string]int{}
		for _, c := range grid.Cells(engine.Config{}) {
			if c.N > maxN[c.Protocol] {
				maxN[c.Protocol] = c.N
			}
			if c.N > maxN[c.Protocol+"@"+c.Family] {
				maxN[c.Protocol+"@"+c.Family] = c.N
			}
		}
		for p, top := range tc.tops {
			if maxN[p] != top {
				t.Errorf("%s: %s tops out at %d, want %d", tc.id, p, maxN[p], top)
			}
		}
		for key, ceiling := range grid.SizeCaps {
			if maxN[key] > ceiling {
				t.Errorf("%s: %s has a cell at n=%d above its cap %d", tc.id, key, maxN[key], ceiling)
			}
		}
	}
	// The scoped barbell ceiling: flood-b1 stresses the dense family
	// only to 1024 while climbing the sparse planted ladders to 8192.
	for _, g := range Grids() {
		if g.ID != "E18" {
			continue
		}
		for _, c := range g.Cells(engine.Config{}) {
			if c.Protocol == "flood-b1" && c.Family == "barbell" && c.N > 1024 {
				t.Errorf("E18: flood-b1×barbell cell at n=%d above the scoped cap", c.N)
			}
		}
	}
}
