package bcc_test

import (
	"reflect"
	"testing"

	"bcclique/internal/algorithms"
	"bcclique/internal/bcc"
	"bcclique/internal/graph"
)

func cycleGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i
	}
	g, err := graph.FromCycle(n, seq)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shuffledIDs is an ID assignment that is NOT ascending in vertex-index
// order, forcing NewKT1 down the materialized-wiring path.
func shuffledIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = (i*7 + 3) % n
	}
	return ids
}

// TestCanonicalWiringMatchesMaterialized pins the implicit-wiring
// formula against the explicit table construction: for ascending IDs
// the two must agree port by port, view by view.
func TestCanonicalWiringMatchesMaterialized(t *testing.T) {
	const n = 9
	g := cycleGraph(t, n)
	implicit, err := bcc.NewKT1(bcc.SequentialIDs(n), g)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the same instance through the generic KT-0 constructor
	// with the canonical wiring written out long-hand.
	wiring := make([][]int, n)
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if u != v {
				wiring[v] = append(wiring[v], u)
			}
		}
	}
	explicit, err := bcc.NewKT0(bcc.SequentialIDs(n), g, wiring)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		for p := 0; p < n-1; p++ {
			if implicit.NeighborAt(v, p) != explicit.NeighborAt(v, p) {
				t.Fatalf("NeighborAt(%d,%d): implicit %d, explicit %d",
					v, p, implicit.NeighborAt(v, p), explicit.NeighborAt(v, p))
			}
		}
		for u := 0; u < n; u++ {
			if implicit.PortOf(v, u) != explicit.PortOf(v, u) {
				t.Fatalf("PortOf(%d,%d): implicit %d, explicit %d",
					v, u, implicit.PortOf(v, u), explicit.PortOf(v, u))
			}
		}
		if got, want := implicit.InputPorts(v), explicit.InputPorts(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("InputPorts(%d): implicit %v, explicit %v", v, got, want)
		}
	}
}

// TestCanonicalRunMatchesShuffledIDs pins that a run on the implicit
// canonical wiring behaves exactly like the same algorithm on the
// materialized KT-1 wiring (non-ascending IDs relabel the vertices but
// the verdict and cost profile of a symmetric input are identical).
func TestCanonicalRunMatchesShuffledIDs(t *testing.T) {
	const n = 8
	g := cycleGraph(t, n)
	algo, err := algorithms.NewBoruvka(4)
	if err != nil {
		t.Fatal(err)
	}

	canonical, err := bcc.NewKT1(bcc.SequentialIDs(n), g)
	if err != nil {
		t.Fatal(err)
	}
	materialized, err := bcc.NewKT1(shuffledIDs(n), g)
	if err != nil {
		t.Fatal(err)
	}
	resC, err := bcc.Run(canonical, algo)
	if err != nil {
		t.Fatal(err)
	}
	resM, err := bcc.Run(materialized, algo)
	if err != nil {
		t.Fatal(err)
	}
	if !resC.HasVerdict || resC.Verdict != bcc.VerdictYes {
		t.Errorf("canonical run verdict = %v", resC.Verdict)
	}
	if resC.Verdict != resM.Verdict || resC.TotalBits != resM.TotalBits || resC.Rounds != resM.Rounds {
		t.Errorf("canonical vs materialized diverge: bits %d/%d rounds %d/%d",
			resC.TotalBits, resM.TotalBits, resC.Rounds, resM.Rounds)
	}
}

// TestCanonicalSwapMaterializes pins the lazy materialization: port
// rewiring on an implicit instance works and the involution property
// survives.
func TestCanonicalSwapMaterializes(t *testing.T) {
	const n = 6
	g := cycleGraph(t, n)
	in, err := bcc.NewKT1(bcc.SequentialIDs(n), g)
	if err != nil {
		t.Fatal(err)
	}
	orig := in.Clone()
	if err := in.SwapPortTargets(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if in.Equal(orig) {
		t.Fatal("swap left the instance unchanged")
	}
	if got := in.NeighborAt(0, 1); got != orig.NeighborAt(0, 3) {
		t.Errorf("port 1 of vertex 0 now leads to %d", got)
	}
	if err := in.SwapPortTargets(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if !in.Equal(orig) {
		t.Error("double swap is not the identity")
	}
}

// TestRunWithoutTranscripts pins the memory-bounded run mode: identical
// verdict, labels and cost series, and no transcripts.
func TestRunWithoutTranscripts(t *testing.T) {
	const n = 10
	g := cycleGraph(t, n)
	in, err := bcc.NewKT1(bcc.SequentialIDs(n), g)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := algorithms.NewFlood(2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := bcc.Run(in, algo)
	if err != nil {
		t.Fatal(err)
	}
	lean, err := bcc.Run(in, algo, bcc.WithoutTranscripts())
	if err != nil {
		t.Fatal(err)
	}
	if lean.Transcripts != nil {
		t.Error("WithoutTranscripts still recorded transcripts")
	}
	if full.Transcripts == nil {
		t.Error("default run lost its transcripts")
	}
	if lean.Verdict != full.Verdict || lean.TotalBits != full.TotalBits ||
		!reflect.DeepEqual(lean.Labels, full.Labels) || !reflect.DeepEqual(lean.RoundBits, full.RoundBits) {
		t.Error("transcript-free run diverges from the full run")
	}
	// RoundBits must equal the transcript-derived series.
	derived := make([]int, full.Rounds)
	for v := range full.Transcripts {
		for tr, m := range full.Transcripts[v].Sent {
			derived[tr] += int(m.Len)
		}
	}
	if !reflect.DeepEqual(derived, full.RoundBits) {
		t.Errorf("RoundBits %v != transcript-derived %v", full.RoundBits, derived)
	}
}
