package harness

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"bcclique/internal/bcc"
	"bcclique/internal/engine"
	"bcclique/internal/family"
	"bcclique/internal/obs"
	"bcclique/internal/protocol"
	"bcclique/internal/report"
)

// Grids returns the sweep-grid registry: E17 and E18, the scenario
// subsystem's protocol × family × size grids. The engine registers each
// as a regular spec (so they join E01–E16 in reports and /v1/specs) and
// additionally serves them cell-by-cell through RunGrid — each cell is
// content-addressed independently, so recomposing a grid recomputes
// only new cells.
func Grids() []engine.GridSpec {
	return []engine.GridSpec{gridE17(), gridE18()}
}

// cellIdentity is the CellKey of both grids: the concatenated canonical
// keys of the protocol and family registries, so a cell's content
// address changes exactly when either axis's declared parameters or
// version change.
func cellIdentity(protoName, famName string) (string, error) {
	p, ok := protocol.Lookup(protoName)
	if !ok {
		return "", fmt.Errorf("unknown protocol %q", protoName)
	}
	f, ok := family.Lookup(famName)
	if !ok {
		return "", fmt.Errorf("unknown family %q", famName)
	}
	return p.Key() + ";" + f.Key(), nil
}

// runCellOutcomes builds the cell's family instance once per seed and
// runs its protocol on each: the shared measurement loop of both grids.
// Under tracing each seed contributes a "generate" span (family build)
// and a "run" span (protocol execution, whose bind/rounds/assemble
// children come from bcc.RunContext), and the mean rounds/bits land as
// attributes on the enclosing cell span — the values the server's
// per-cell histograms observe.
func runCellOutcomes(ctx context.Context, cell engine.GridCell, seeds []int64) ([]*protocol.Outcome, error) {
	p, ok := protocol.Lookup(cell.Protocol)
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q", cell.Protocol)
	}
	f, ok := family.Lookup(cell.Family)
	if !ok {
		return nil, fmt.Errorf("unknown family %q", cell.Family)
	}
	outs := make([]*protocol.Outcome, len(seeds))
	for i, seed := range seeds {
		_, gen := obs.Start(ctx, "generate")
		gen.SetNum("seed", float64(seed))
		g, err := f.Build(cell.N, seed)
		gen.EndErr(err)
		if err != nil {
			return nil, err
		}
		rctx, run := obs.Start(ctx, "run")
		run.SetNum("seed", float64(seed))
		out, err := p.Run(rctx, g, seed)
		if err != nil {
			run.EndErr(err)
			return nil, err
		}
		run.SetNum("rounds", float64(out.Rounds))
		run.SetNum("total_bits", float64(out.TotalBits))
		run.End()
		outs[i] = out
	}
	if cellSpan := obs.FromContext(ctx); cellSpan != nil && len(outs) > 0 {
		var rounds, bits float64
		for _, o := range outs {
			rounds += float64(o.Rounds)
			bits += float64(o.TotalBits)
		}
		cellSpan.SetNum("mean_rounds", rounds/float64(len(outs)))
		cellSpan.SetNum("mean_bits", bits/float64(len(outs)))
	}
	return outs, nil
}

// gridE17 is the round/bit-cost curve grid: every protocol on every
// family across a size sweep, averaged over seeds. The rounds/log₂n
// column makes the Θ(log n) tracking visible — on the two-cycle family
// (the paper's hard instance) the logarithmic protocols hold it
// constant while flooding grows linearly in n.
func gridE17() engine.GridSpec {
	return engine.GridSpec{
		ID:       "E17",
		Title:    "Protocol × family round/bit-cost curves",
		PaperRef: "Section 1.1 (tightness), Theorems 3.1, 4.4",
		Version:  1,
		Claim: "The Ω(log n) lower bounds are tight on uniformly sparse families: deterministic " +
			"BCC protocols decide Connectivity in O(log n) rounds there, and the cost curves " +
			"over graph families trace exactly that gap.",
		Caption: "rounds/log₂n stays flat for the logarithmic protocols on every 2-regular family " +
			"(two-cycle empirically tracks the Θ(log n) bound) and grows like n/log n for flooding; " +
			"correct counts protocol runs whose verdict and labels match ground truth (refusals are " +
			"detectable, never silent).",
		Protocols: []string{"kt0-exchange", "boruvka", "sketch-a2", "flood-b1"},
		Families:  []string{"one-cycle", "two-cycle", "crossed-two-cycle", "er-threshold", "grid"},
		// The doubling ladder runs to n = 32768: flood-b1 climbs the
		// whole thing on the runner's word-packed bit plane (its rounds
		// collapse to two n-bit planes per round). Cells are cached
		// individually, so the pre-existing sizes keep their content
		// addresses and a grown ladder only computes the new cells.
		// Full runs at the top are still minutes of compute — restrict
		// with -protocols/-sizes for targeted large-n curves (see
		// README and `make sweep-xxl`).
		Sizes:      []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768},
		QuickSizes: []int{8, 16},
		// Declared feasibility ceilings. The run-shared substrates
		// collapsed the old per-replica walls — boruvka's replicated
		// merge state, the KT-0 full-information universes, the sketch
		// replicas' private retirement mirrors are all one-per-run now
		// (DESIGN.md §6.2) — so the ceilings are set by per-run compute
		// instead of per-replica memory. The sketch's phase decode
		// peels: a row divides out the rows decoded before it that hold
		// its vertex, scans the universe only while more than two of its
		// elements are left, and solves the last two in closed form. Grid
		// and cycle rows never scan; some er-threshold rows still scan
		// part of the universe, Θ(n) each. boruvka rides to 16384. The
		// bit-plane flood-b1 and kt0-exchange, whose seeded instance
		// draws only its input-edge ports, climb the full ladder.
		SizeCaps:   map[string]int{"sketch-a2": 2048, "boruvka": 16384},
		Seeds:      3,
		QuickSeeds: 2,
		Headers:    []string{"family", "protocol", "n", "b", "rounds", "total bits", "bits/round", "rounds/log₂n", "correct"},
		CellKey:    cellIdentity,
		RunCell:    runE17Cell,
	}
}

func runE17Cell(ctx context.Context, _ engine.Config, cell engine.GridCell, seeds []int64) ([]string, error) {
	outs, err := runCellOutcomes(ctx, cell, seeds)
	if err != nil {
		return nil, err
	}
	var rounds, bits float64
	correct := 0
	bandwidth := 0
	for _, o := range outs {
		rounds += float64(o.Rounds)
		bits += float64(o.TotalBits)
		bandwidth = o.Bandwidth
		if o.Correct {
			correct++
		}
		if o.SilentWrong() {
			return nil, fmt.Errorf("%s on %s (n=%d): silent wrong answer", cell.Protocol, cell.Family, cell.N)
		}
	}
	k := float64(len(outs))
	meanRounds, meanBits := rounds/k, bits/k
	perRound := 0.0
	if meanRounds > 0 {
		perRound = meanBits / meanRounds
	}
	return []string{
		cell.Family,
		cell.Protocol,
		strconv.Itoa(cell.N),
		strconv.Itoa(bandwidth),
		report.FormatFloat(meanRounds),
		report.FormatFloat(meanBits),
		report.FormatFloat(perRound),
		report.FormatFloat(meanRounds / math.Log2(float64(cell.N))),
		fmt.Sprintf("%d/%d", correct, len(outs)),
	}, nil
}

// gridE18 is the hard-instance stress grid: planted-disconnected and
// above-promise inputs against the promise algorithms. The contract it
// pins: a protocol may answer correctly or refuse detectably (verdict
// NO, every label −1) — it must never be silently wrong.
func gridE18() engine.GridSpec {
	return engine.GridSpec{
		ID:       "E18",
		Title:    "Hard-instance stress: detectable refusal, never silent wrong answers",
		PaperRef: "Section 1.1 (promise algorithms), Section 1.2 (system verdicts)",
		Version:  1,
		Claim: "On inputs outside an algorithm's promise — planted-disconnected graphs, dense graphs " +
			"above the sketch's arboricity bound — every vertex outputs a detectable NO / label −1, " +
			"never a silently wrong answer.",
		Caption: "refused counts runs where every vertex output the −1 sentinel (the detectable " +
			"promise-violation signal); silent wrong must be 0 everywhere. flood-b1 is the " +
			"promise-free control: it reconstructs the input exactly, so it must answer correctly " +
			"(never refuse) on every stress family.",
		Protocols: []string{"sketch-a1", "sketch-a2", "boruvka", "flood-b1"},
		Families:  []string{"planted-2", "planted-4", "barbell"},
		// Stress sizes climb to n = 32768 on the planted families via
		// the bit-plane flood-b1 (the barbell at 8192 is ~16.8M clique
		// edges — the CSR builder assembles it in one pass, but only
		// boruvka's O(log n) rounds can afford to stress it above 1024).
		// The pre-existing cells keep their cached content addresses.
		Sizes:      []int{16, 32, 64, 256, 1024, 4096, 8192, 16384, 32768},
		QuickSizes: []int{12},
		// The shared-substrate ceilings of E17, restated on this ladder:
		// the sketch stops at 2048 (its top rung here is 1024), where a
		// row that still scans the universe costs Θ(n), and boruvka's
		// shared merge mirror rides to 16384. flood-b1 reconstructs
		// every edge, so on the Θ(n²)-edge barbell its union work is
		// Θ(n²) — the scoped cap keeps that pair honest while the sparse
		// planted families climb to 32768.
		SizeCaps: map[string]int{
			"sketch-a1": 2048, "sketch-a2": 2048, "boruvka": 16384,
			"flood-b1@barbell": 1024,
		},
		Seeds:      3,
		QuickSeeds: 2,
		Headers:    []string{"family", "protocol", "n", "verdicts", "correct", "refused", "silent wrong"},
		CellKey:    cellIdentity,
		RunCell:    runE18Cell,
		Summarize:  summarizeE18,
	}
}

func runE18Cell(ctx context.Context, _ engine.Config, cell engine.GridCell, seeds []int64) ([]string, error) {
	outs, err := runCellOutcomes(ctx, cell, seeds)
	if err != nil {
		return nil, err
	}
	no, yes, correct, refused, silent := 0, 0, 0, 0, 0
	for _, o := range outs {
		if o.HasVerdict && o.Verdict == bcc.VerdictYes {
			yes++
		} else {
			no++
		}
		if o.Correct {
			correct++
		}
		if o.Refused {
			refused++
		}
		if o.SilentWrong() {
			silent++
		}
	}
	verdicts := make([]string, 0, 2)
	if no > 0 {
		verdicts = append(verdicts, fmt.Sprintf("NO×%d", no))
	}
	if yes > 0 {
		verdicts = append(verdicts, fmt.Sprintf("YES×%d", yes))
	}
	k := len(outs)
	return []string{
		cell.Family,
		cell.Protocol,
		strconv.Itoa(cell.N),
		strings.Join(verdicts, ","),
		fmt.Sprintf("%d/%d", correct, k),
		fmt.Sprintf("%d/%d", refused, k),
		strconv.Itoa(silent),
	}, nil
}

// summarizeE18 asserts the stress property across the assembled rows:
// the Finding states the silent-wrong total (zero cell by cell in the
// table), and flags a contract violation loudly if the total is ever
// nonzero — the cells still render so the offending row is visible.
func summarizeE18(rows [][]string) string {
	silent := 0
	for _, row := range rows {
		v, err := strconv.Atoi(row[len(row)-1])
		if err == nil {
			silent += v
		}
	}
	if silent > 0 {
		return fmt.Sprintf("CONTRACT VIOLATION: %d silent wrong answers across %d cells — see the silent wrong column for the offending rows.",
			silent, len(rows))
	}
	return fmt.Sprintf("0 silent wrong answers across %d cells: every failure is a detectable NO/−1 refusal.",
		len(rows))
}
