// Package harness is the experiment registry that regenerates, as
// tables, every theorem, lemma and figure of the paper (the paper has no
// numeric evaluation section; its "results" are proofs, so each
// experiment is the executable form of one statement — see DESIGN.md §3
// for the per-experiment index E01–E18).
//
// The harness is the top of a four-layer pipeline: it declares the specs
// (this package), internal/engine executes them with cache lookups and
// deterministic parallelism, internal/results stores content-addressed
// results, and internal/report renders them.
//
// Beyond the scalar specs E01–E16, the registry carries the scenario
// subsystem's sweep grids E17–E18 (exp_sweeps.go): protocol × family ×
// size products built on internal/protocol and internal/family, cached
// cell by cell. NewEngine registers both kinds.
package harness

import (
	"bcclique/internal/engine"
	"bcclique/internal/report"
)

// Config tunes experiment sizes. It is the engine's config type; see
// internal/engine.
type Config = engine.Config

// Params are a spec's declared size parameters; see internal/engine.
type Params = engine.Params

// Table is one rendered result table; see internal/report.
type Table = report.Table

// Result is the outcome of one experiment; see internal/report.
type Result = report.Result

// All returns the registry in ID order. Each entry is a declarative
// spec: its Params are the headline size knobs the experiment body reads
// (so the canonical spec encoding — and with it the result-cache key —
// changes whenever an experiment's parameters change).
func All() []engine.Spec {
	return []engine.Spec{
		{ID: "E01", Title: "Port-preserving crossings preserve transcripts", PaperRef: "Figure 1, Definition 3.3, Lemma 3.4",
			Params: Params{N: 8, QuickN: 7, T: 4, Trials: 20}, Run: runE01},
		{ID: "E02", Title: "Warm-up star argument", PaperRef: "Theorem 3.5",
			Params: Params{Sizes: []int{9, 15, 30}, QuickSizes: []int{9, 15}}, Run: runE02},
		{ID: "E03", Title: "Neighbourhood degree profile", PaperRef: "Lemma 3.7",
			Params: Params{N: 8, QuickN: 7}, Run: runE03},
		{ID: "E04", Title: "Expansion and Polygamous Hall packings", PaperRef: "Lemma 3.8, Theorem 2.1",
			Params: Params{Sizes: []int{7, 8}, QuickSizes: []int{7}}, Run: runE04},
		{ID: "E05", Title: "Two-cycle census |V2|/|V1| = Θ(log n)", PaperRef: "Lemma 3.9",
			Params: Params{N: 10, QuickN: 8}, Run: runE05},
		{ID: "E06", Title: "KT-0 constant-error forced error", PaperRef: "Theorem 3.1",
			Params: Params{N: 8, QuickN: 7, Sizes: []int{1, 2, 4}, QuickSizes: []int{1, 2}}, Run: runE06},
		{ID: "E07", Title: "rank(M_n) = B_n", PaperRef: "Theorem 2.3, Corollary 2.4",
			Params: Params{N: 7, QuickN: 6}, Run: runE07},
		{ID: "E08", Title: "rank(E_n) full", PaperRef: "Lemma 4.1, Corollary 4.2",
			Params: Params{N: 10, QuickN: 8}, Run: runE08},
		{ID: "E09", Title: "Reduction graphs realize the join", PaperRef: "Figure 2, Theorem 4.3",
			Params: Params{N: 5, QuickN: 4, Trials: 200, QuickTrials: 50, Extra: "pairing-n=6"}, Run: runE09},
		{ID: "E10", Title: "2-party simulation of KT-1 algorithms", PaperRef: "Theorem 4.4",
			Params: Params{Sizes: []int{16, 32, 64, 128}, QuickSizes: []int{16, 32}, Extra: "exhaustive-sizes=6,8,10"}, Run: runE10},
		{ID: "E11", Title: "Information bound for PartitionComp", PaperRef: "Theorem 4.5",
			Params: Params{Sizes: []int{4, 5, 6, 7}, QuickSizes: []int{4, 5}}, Run: runE11},
		{ID: "E12", Title: "Matching upper bounds (tightness)", PaperRef: "Section 1.1, [MT16]",
			Params: Params{N: 128, QuickN: 64, Sizes: []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}, QuickSizes: []int{8, 16, 32, 64, 128, 256}}, Run: runE12},
		{ID: "E13", Title: "Bell-number growth 2^{Θ(n log n)}", PaperRef: "Section 2",
			Params: Params{N: 400, QuickN: 100}, Run: runE13},
		{ID: "E14", Title: "Model semantics self-checks", PaperRef: "Section 1.2",
			Params: Params{N: 8, Trials: 200}, Run: runE14},
		{ID: "E15", Title: "Proof-labeling schemes from transcripts", PaperRef: "Section 1.3, [KKP10; PP17]",
			Params: Params{N: 12, Trials: 200, QuickTrials: 60}, Run: runE15},
		{ID: "E16", Title: "Deterministic sketching beyond bounded degree", PaperRef: "Section 1.1, [MT16]",
			Params: Params{Trials: 300, QuickTrials: 80, Sizes: []int{16, 32, 48}, QuickSizes: []int{16, 32}}, Run: runE16},
	}
}

// NewEngine builds an execution engine over the full registry — the
// scalar specs E01–E16 plus the E17–E18 sweep grids. Pass
// engine.WithStore to share the content-addressed result cache with the
// other entry points.
func NewEngine(opts ...engine.Option) *engine.Engine {
	return engine.New(All(), append(opts, engine.WithGrids(Grids()...))...)
}

// FormatFloat renders floats compactly for tables; see internal/report.
func FormatFloat(v float64) string { return report.FormatFloat(v) }

// YesNo renders a boolean as a table cell; see internal/report.
func YesNo(b bool) string { return report.YesNo(b) }
