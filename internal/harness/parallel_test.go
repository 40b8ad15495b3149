package harness

import (
	"bytes"
	"regexp"
	"testing"

	"bcclique/internal/parallel"
	"bcclique/internal/report"
)

var elapsedLine = regexp.MustCompile(`\(elapsed: [^)]*\)`)

// normalizeReport blanks the only nondeterministic bytes of a report:
// per-section elapsed times.
func normalizeReport(b []byte) string {
	return string(elapsedLine.ReplaceAll(b, []byte("(elapsed: X)")))
}

// TestRunAllParallelMatchesSequential is the engine's determinism
// contract: the markdown report and every per-experiment result are
// byte-identical whether the suite runs on one worker or many.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite twice")
	}
	defer parallel.SetLimit(0)
	ids := []string{"E01", "E05", "E09", "E13", "E14"}

	parallel.SetLimit(1)
	var seqBuf bytes.Buffer
	seqResults, err := NewEngine().Stream(t.Context(), &seqBuf, report.Markdown{}, report.Meta{}, Config{Quick: true, Seed: 1}, ids, nil)
	if err != nil {
		t.Fatal(err)
	}

	parallel.SetLimit(8)
	var parBuf bytes.Buffer
	parResults, err := NewEngine().Stream(t.Context(), &parBuf, report.Markdown{}, report.Meta{}, Config{Quick: true, Seed: 1}, ids, nil)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := normalizeReport(parBuf.Bytes()), normalizeReport(seqBuf.Bytes()); got != want {
		t.Errorf("parallel report differs from sequential report:\n--- sequential ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if len(parResults) != len(seqResults) {
		t.Fatalf("parallel ran %d experiments, sequential %d", len(parResults), len(seqResults))
	}
	for i := range seqResults {
		s, p := seqResults[i], parResults[i]
		if s.ID != p.ID || s.Finding != p.Finding || s.Claim != p.Claim {
			t.Errorf("experiment %d: results diverge (%s vs %s)", i, s.ID, p.ID)
		}
		if len(s.Tables) != len(p.Tables) {
			t.Errorf("%s: table count diverges", s.ID)
			continue
		}
		for ti := range s.Tables {
			st, pt := s.Tables[ti], p.Tables[ti]
			if len(st.Rows) != len(pt.Rows) {
				t.Errorf("%s table %d: row count diverges", s.ID, ti)
				continue
			}
			for ri := range st.Rows {
				for ci := range st.Rows[ri] {
					if st.Rows[ri][ci] != pt.Rows[ri][ci] {
						t.Errorf("%s table %d row %d col %d: %q (parallel) != %q (sequential)",
							s.ID, ti, ri, ci, pt.Rows[ri][ci], st.Rows[ri][ci])
					}
				}
			}
		}
	}
}

// TestRunAllWritesInIDOrder checks the deterministic-ordering half of
// the engine: sections appear in registry order even though experiments
// complete out of order.
func TestRunAllWritesInIDOrder(t *testing.T) {
	defer parallel.SetLimit(0)
	parallel.SetLimit(8)
	var buf bytes.Buffer
	results, err := NewEngine().Stream(t.Context(), &buf, report.Markdown{}, report.Meta{}, Config{Quick: true, Seed: 1}, []string{"E13", "E05", "E14"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"E05", "E13", "E14"}
	if len(results) != len(wantOrder) {
		t.Fatalf("ran %d experiments, want %d", len(results), len(wantOrder))
	}
	prev := -1
	for i, want := range wantOrder {
		if results[i].ID != want {
			t.Errorf("result %d is %s, want %s", i, results[i].ID, want)
		}
		at := bytes.Index(buf.Bytes(), []byte("## "+want))
		if at < 0 {
			t.Fatalf("report missing section %s", want)
		}
		if at < prev {
			t.Errorf("section %s appears before the preceding section", want)
		}
		prev = at
	}
}
