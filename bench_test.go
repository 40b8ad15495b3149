// Package bcclique's root benchmark harness: one benchmark per experiment
// table (E01–E16; see DESIGN.md §3 for the index), plus engine-level
// benchmarks measuring the result cache's cold-run overhead and warm-run
// serving speed, and sweep-grid benchmarks measuring the scenario
// subsystem's per-cell cache cold vs. warm (BENCH_sweeps.json baseline). Each experiment benchmark regenerates the computation
// behind its experiment, so
//
//	go test -bench=. -benchmem
//
// re-measures every row of EXPERIMENTS.md at reduced sizes.
package bcclique_test

import (
	"context"
	"io"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"bcclique/internal/engine"
	"bcclique/internal/report"
	"bcclique/internal/results"

	"bcclique/internal/algorithms"
	"bcclique/internal/bcc"
	"bcclique/internal/comm"
	"bcclique/internal/core"
	"bcclique/internal/crossing"
	"bcclique/internal/family"
	"bcclique/internal/graph"
	"bcclique/internal/harness"
	"bcclique/internal/indist"
	"bcclique/internal/partition"
	"bcclique/internal/pls"
	"bcclique/internal/protocol"
	"bcclique/internal/reduction"
	"bcclique/internal/sketch"
)

// BenchmarkE01Crossing measures Lemma 3.4 verification: one full
// crossing-plus-transcript-comparison cycle.
func BenchmarkE01Crossing(b *testing.B) {
	const n = 9
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i
	}
	g, err := graph.FromCycle(n, seq)
	if err != nil {
		b.Fatal(err)
	}
	in, err := bcc.NewKT0(bcc.SequentialIDs(n), g, bcc.RotationWiring(n))
	if err != nil {
		b.Fatal(err)
	}
	algo := algorithms.InputParity{T: 4}
	e1, e2 := crossing.DirectedEdge{V: 0, U: 1}, crossing.DirectedEdge{V: 4, U: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := crossing.Lemma34Holds(in, e1, e2, algo, 4, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE02WarmUp measures the Theorem 3.5 pigeonhole computation.
func BenchmarkE02WarmUp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for t := 0; t <= 6; t++ {
			_ = core.WarmupErrorBound(1<<20, t)
		}
	}
}

// BenchmarkE03DegreeProfile measures building G⁰ and checking Lemma 3.7
// on every one-cycle instance at n=7.
func BenchmarkE03DegreeProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := indist.New(7, indist.ZeroRoundLabeler, "", "")
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < g.NumOne(); j++ {
			if err := g.CheckLemma37(j); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE04HallMatching measures the Polygamous-Hall packing machinery
// (maximum matching on G⁰ at n=7).
func BenchmarkE04HallMatching(b *testing.B) {
	g, err := indist.New(7, indist.ZeroRoundLabeler, "", "")
	if err != nil {
		b.Fatal(err)
	}
	bp := g.Bipartite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, size := bp.MaxMatching(); size != g.NumTwo() {
			b.Fatal("matching did not saturate V2")
		}
	}
}

// BenchmarkE05CycleCensus measures the exhaustive Lemma 3.9 census at
// n=9.
func BenchmarkE05CycleCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var v1, v2 int
		if err := graph.EachOneCycle(9, func([]int) bool { v1++; return true }); err != nil {
			b.Fatal(err)
		}
		if err := graph.EachTwoCycle(9, 3, func(_, _ []int) bool { v2++; return true }); err != nil {
			b.Fatal(err)
		}
		if int64(v1) != graph.NumOneCycles(9).Int64() || int64(v2) != graph.NumTwoCycles(9).Int64() {
			b.Fatal("census mismatch")
		}
	}
}

// BenchmarkE06KT0Bound measures a full KT-0 certificate (Theorem 3.1) at
// n=7.
func BenchmarkE06KT0Bound(b *testing.B) {
	algo := algorithms.Silent{T: 2, Answer: bcc.VerdictYes}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CertifyKT0(7, 2, algo, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE07RankMn measures building and ranking M_6 (203×203).
func BenchmarkE07RankMn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := comm.MatrixM(6)
		if err != nil {
			b.Fatal(err)
		}
		if m.Rank() != 203 {
			b.Fatal("rank(M_6) != 203")
		}
	}
}

// BenchmarkE08RankEn measures building and ranking E_8 (105×105).
func BenchmarkE08RankEn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := comm.MatrixE(8)
		if err != nil {
			b.Fatal(err)
		}
		if m.Rank() != 105 {
			b.Fatal("rank(E_8) != 105")
		}
	}
}

// BenchmarkE09Reduction measures one Theorem 4.3 build-and-verify at
// n=64.
func BenchmarkE09Reduction(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pa := partition.Random(64, rng)
	pb := partition.Random(64, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, ly, err := reduction.BuildGeneral(pa, pb)
		if err != nil {
			b.Fatal(err)
		}
		if err := reduction.VerifyTheorem43(g, ly, pa, pb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Simulation measures one Theorem 4.4 simulation (ground 16,
// graph 32 vertices) including the direct-run cross-check.
func BenchmarkE10Simulation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pa, _ := partition.RandomPairing(16, rng)
	pb, _ := partition.RandomPairing(16, rng)
	algo, err := algorithms.NewNeighborhoodBroadcast(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := reduction.Simulate(algo, pa, pb)
		if err != nil {
			b.Fatal(err)
		}
		if !res.MatchesDirect {
			b.Fatal("simulation diverged")
		}
	}
}

// BenchmarkE11InfoBound measures one exact Theorem 4.5 certificate at
// n=5.
func BenchmarkE11InfoBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.CertifyInfo(5, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12UpperBounds measures the O(log n) upper bound executing on
// a 256-vertex cycle.
func BenchmarkE12UpperBounds(b *testing.B) {
	seq := make([]int, 256)
	for i := range seq {
		seq[i] = i
	}
	g, err := graph.FromCycle(256, seq)
	if err != nil {
		b.Fatal(err)
	}
	in, err := bcc.NewKT1(bcc.SequentialIDs(256), g)
	if err != nil {
		b.Fatal(err)
	}
	algo, err := algorithms.NewNeighborhoodBroadcast(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bcc.Run(in, algo)
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != bcc.VerdictYes {
			b.Fatal("wrong verdict")
		}
	}
}

// BenchmarkE13Bell measures Bell-number growth accounting to n=200.
func BenchmarkE13Bell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bells := partition.BellsUpTo(200)
		_ = partition.Log2Big(bells[200])
	}
}

// BenchmarkE14Simulator measures raw simulator throughput (64 vertices ×
// 16 rounds of 1-bit broadcasts).
func BenchmarkE14Simulator(b *testing.B) {
	seq := make([]int, 64)
	for i := range seq {
		seq[i] = i
	}
	g, err := graph.FromCycle(64, seq)
	if err != nil {
		b.Fatal(err)
	}
	in, err := bcc.NewKT1(bcc.SequentialIDs(64), g)
	if err != nil {
		b.Fatal(err)
	}
	algo := algorithms.CoinCast{T: 16}
	coin := bcc.NewCoin(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bcc.Run(in, algo, bcc.WithCoin(coin)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15PLS measures proving + verifying the transcript
// proof-labeling scheme on a 32-vertex cycle.
func BenchmarkE15PLS(b *testing.B) {
	algo, err := algorithms.NewNeighborhoodBroadcast(2)
	if err != nil {
		b.Fatal(err)
	}
	seq := make([]int, 32)
	for i := range seq {
		seq[i] = i
	}
	g, err := graph.FromCycle(32, seq)
	if err != nil {
		b.Fatal(err)
	}
	in, err := bcc.NewKT1(bcc.SequentialIDs(32), g)
	if err != nil {
		b.Fatal(err)
	}
	scheme := pls.Transcript{Algo: algo}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := pls.ProveAndAccept(in, scheme)
		if err != nil || !ok {
			b.Fatal("proof rejected")
		}
	}
}

// BenchmarkE16Sketch measures sketch connectivity on a 32-vertex star
// (unbounded degree, arboricity 1).
func BenchmarkE16Sketch(b *testing.B) {
	g := graph.New(32)
	for i := 1; i < 32; i++ {
		g.MustAddEdge(0, i)
	}
	in, err := bcc.NewKT1(bcc.SequentialIDs(32), g)
	if err != nil {
		b.Fatal(err)
	}
	algo, err := sketch.NewConnectivity(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bcc.Run(in, algo)
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != bcc.VerdictYes {
			b.Fatal("wrong verdict")
		}
	}
}

// BenchmarkFullQuickSuite runs the entire quick experiment suite — the
// end-to-end cost of regenerating EXPERIMENTS.md in -quick mode.
func BenchmarkFullQuickSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.NewEngine().Stream(context.Background(), io.Discard, report.Markdown{}, report.Meta{}, harness.Config{Quick: true, Seed: 1}, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// engineBenchIDs are cheap experiments, so the engine benchmarks measure
// the cache layer rather than the underlying mathematics.
var engineBenchIDs = []string{"E07", "E13"}

// sweepBenchGrid is a small fixed E17 slice (2 protocols × 2 families ×
// 1 size, 3 seeds per cell), so the sweep benchmarks measure the grid
// engine and its per-cell cache rather than the protocol runtimes.
func sweepBenchGrid(b *testing.B, eng *engine.Engine) engine.GridSpec {
	b.Helper()
	grid, ok := eng.LookupGrid("E17")
	if !ok {
		b.Fatal("E17 grid not registered")
	}
	grid, err := grid.Restrict(
		[]string{"kt0-exchange", "boruvka"},
		[]string{"one-cycle", "two-cycle"},
		[]int{16},
	)
	if err != nil {
		b.Fatal(err)
	}
	return grid
}

// BenchmarkSweepGridColdCache measures a cold cached grid run: every
// cell computed, encoded, and atomically written to the per-cell store.
func BenchmarkSweepGridColdCache(b *testing.B) {
	cfg := engine.Config{Seed: 1}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store, err := results.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		eng := harness.NewEngine(engine.WithStore(store))
		grid := sweepBenchGrid(b, eng)
		b.StartTimer()
		if _, err := eng.RunGrid(context.Background(), grid, cfg, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepGridWarmCache measures re-running the same grid against
// a warm per-cell cache — the /v1/sweeps hot path: per-cell key
// derivation, disk reads, row assembly, zero cell executions.
func BenchmarkSweepGridWarmCache(b *testing.B) {
	cfg := engine.Config{Seed: 1}
	store, err := results.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	warm := harness.NewEngine(engine.WithStore(store))
	grid := sweepBenchGrid(b, warm)
	if _, err := warm.RunGrid(context.Background(), grid, cfg, nil, nil); err != nil {
		b.Fatal(err)
	}
	primed := warm.CellExecutions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := warm.RunGrid(context.Background(), grid, cfg, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	if warm.CellExecutions() != primed {
		b.Fatalf("warm runs re-executed cells (%d executions)", warm.CellExecutions())
	}
}

// BenchmarkSweepGridUncached measures the raw grid engine without a
// store: the pure compute cost the cold-cache benchmark adds its
// encode/write overhead onto.
func BenchmarkSweepGridUncached(b *testing.B) {
	cfg := engine.Config{Seed: 1}
	eng := harness.NewEngine()
	grid := sweepBenchGrid(b, eng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunGrid(context.Background(), grid, cfg, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Bitplane benchmarks (BENCH_bitplane.json baseline) ---------------
//
// The Bitplane* group measures the word-packed 1-bit broadcast plane
// against the generic Message path it replaces on the BCC(1) hot
// protocols: the flood-b1×two-cycle@1024 sweep cell end to end (the
// acceptance cell — the generic variant is the same simulation forced
// down the Message oracle), a plane-riding O(log n) protocol at
// n = 4096, the steady-state round loop's allocation profile, and a
// small uncached flood ladder through RunGrid's descending-n dispatch.

// bitplaneFloodCell returns the flood-b1 protocol and the 1024-vertex
// two-cycle input of the acceptance cell.
func bitplaneFloodCell(b *testing.B) (protocol.Protocol, *graph.Graph) {
	b.Helper()
	p, ok := protocol.Lookup("flood-b1")
	if !ok {
		b.Fatal("flood-b1 protocol missing")
	}
	fam, ok := family.Lookup("two-cycle")
	if !ok {
		b.Fatal("two-cycle family missing")
	}
	g, err := fam.Build(1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	return p, g
}

// BenchmarkBitplaneFloodTwoCycle1024 is the acceptance cell on the bit
// plane: family build amortized out, protocol adapter + instance +
// word-packed simulation + ground-truth comparison per op.
func BenchmarkBitplaneFloodTwoCycle1024(b *testing.B) {
	p, g := bitplaneFloodCell(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := p.Run(context.Background(), g, 1)
		if err != nil {
			b.Fatal(err)
		}
		if !out.BitPlane || out.Verdict != bcc.VerdictNo {
			b.Fatal("cell must ride the bit plane and reject the two-cycle")
		}
	}
}

// BenchmarkBitplaneFloodTwoCycle1024Generic is the same simulation
// forced down the generic Message path — the boruvka-era baseline the
// bit plane is measured against. (It runs the bare simulator without
// the adapter's ground-truth pass, which only flatters the oracle.)
func BenchmarkBitplaneFloodTwoCycle1024Generic(b *testing.B) {
	_, g := bitplaneFloodCell(b)
	in, err := bcc.NewKT1(bcc.SequentialIDs(1024), g)
	if err != nil {
		b.Fatal(err)
	}
	algo, err := algorithms.NewFlood(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bcc.Run(in, algo, bcc.WithoutTranscripts(), bcc.WithoutBitPlane())
		if err != nil {
			b.Fatal(err)
		}
		if res.BitPlane || res.Verdict != bcc.VerdictNo {
			b.Fatal("oracle run must stay generic and reject the two-cycle")
		}
		bcc.Recycle(res)
	}
}

// BenchmarkBitplaneNeighborhood1024 measures a logarithmic BCC(1)
// protocol riding the plane at n = 1024: 2⌈log₂ n⌉ = 20 rounds of
// two-word-plane delivery on a Hamiltonian cycle, each heard once by
// the bound run, which then decides every replica from one partition.
// It times the whole run: binding, the rounds and the output step.
func BenchmarkBitplaneNeighborhood1024(b *testing.B) {
	const n = 1024
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i
	}
	g, err := graph.FromCycle(n, seq)
	if err != nil {
		b.Fatal(err)
	}
	in, err := bcc.NewKT1(bcc.SequentialIDs(n), g)
	if err != nil {
		b.Fatal(err)
	}
	algo, err := algorithms.NewNeighborhoodBroadcast(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bcc.Run(in, algo, bcc.WithoutTranscripts())
		if err != nil {
			b.Fatal(err)
		}
		if !res.BitPlane || res.Verdict != bcc.VerdictYes {
			b.Fatal("run must ride the bit plane and accept the cycle")
		}
		bcc.Recycle(res)
	}
}

// bitLoopProbe is an inert bound BCC(1) run whose nodes are
// preallocated, so a Run's allocations are exactly the runner's own —
// the benchmark isolates the steady-state round loop (SendBits,
// popcount, hear) from node construction. Its SendBits has every
// vertex send 1, and a non-nil probe observes each round there. The
// companion unit test TestBitPlaneRoundLoopAllocationFree pins
// allocations independent of the round count.
type bitLoopProbe struct {
	rounds int
	nodes  []bcc.Node
	next   int
	n      int
	probe  *mallocProbe
}

var (
	_ bcc.RunBinder = (*bitLoopProbe)(nil)
	_ bcc.BitRun    = (*bitLoopProbe)(nil)
)

func (p *bitLoopProbe) Name() string                                 { return "bit-loop-probe" }
func (p *bitLoopProbe) Bandwidth() int                               { return 1 }
func (p *bitLoopProbe) Rounds(int) int                               { return p.rounds }
func (p *bitLoopProbe) BindRun(in *bcc.Instance, _ int) bcc.BoundRun { p.n = in.N(); return p }
func (p *bitLoopProbe) Hear(int, []bcc.Message)                      {}
func (p *bitLoopProbe) BindPlane(bool) bool                          { return true }
func (p *bitLoopProbe) HearBits(int, []uint64, []uint64)             {}
func (p *bitLoopProbe) ReleaseRun()                                  {}
func (p *bitLoopProbe) NewNode(bcc.View, *bcc.Coin) bcc.Node {
	n := p.nodes[p.next]
	p.next = (p.next + 1) % len(p.nodes)
	return n
}

func (p *bitLoopProbe) SendBits(t int, value, spoke []uint64) {
	if p.probe != nil {
		p.probe.observe(t)
	}
	for i := range spoke {
		value[i], spoke[i] = ^uint64(0), ^uint64(0)
	}
	if rest := p.n & 63; rest != 0 {
		value[len(value)-1], spoke[len(spoke)-1] = 1<<uint(rest)-1, 1<<uint(rest)-1
	}
}

type bitLoopNode struct{}

func (bitLoopNode) Send(int) bcc.Message       { return bcc.Bit(1) }
func (bitLoopNode) Receive(int, []bcc.Message) {}

// BenchmarkBitplaneRoundLoop512x4096 measures 4096 steady-state rounds
// at n = 512 with node construction amortized away: the reported
// allocs/op is the runner's whole per-run overhead (result struct,
// node tables, pooled takes), constant in the round count — i.e. the
// round loop itself runs allocation-free out of the pooled planes.
func BenchmarkBitplaneRoundLoop512x4096(b *testing.B) {
	const n, rounds = 512, 4096
	g := graph.New(n)
	in, err := bcc.NewKT0(bcc.SequentialIDs(n), g, bcc.RotationWiring(n))
	if err != nil {
		b.Fatal(err)
	}
	probe := &bitLoopProbe{rounds: rounds, nodes: make([]bcc.Node, n)}
	for i := range probe.nodes {
		probe.nodes[i] = bitLoopNode{}
	}
	// One untimed run fills the runner's pools, and GC stays off for the
	// timed loop, as in benchmarkMemoryCell: a collection mid-loop would
	// drop a pooled plane for the next run to allocate afresh.
	res, err := bcc.Run(in, probe, bcc.WithoutTranscripts())
	if err != nil {
		b.Fatal(err)
	}
	bcc.Recycle(res)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bcc.Run(in, probe, bcc.WithoutTranscripts())
		if err != nil {
			b.Fatal(err)
		}
		if !res.BitPlane || res.TotalBits != n*rounds {
			b.Fatal("probe must ride the bit plane with every vertex speaking")
		}
		bcc.Recycle(res)
	}
}

// BenchmarkBitplaneSweepFloodLadder runs an uncached flood-b1 one-cycle
// ladder (128..512) through RunGrid: the grid engine's descending-n
// dispatch plus the bit-plane cells — the wall-clock shape sweep-xl
// scales up.
func BenchmarkBitplaneSweepFloodLadder(b *testing.B) {
	eng := harness.NewEngine()
	grid, ok := eng.LookupGrid("E17")
	if !ok {
		b.Fatal("E17 grid not registered")
	}
	grid, err := grid.Restrict([]string{"flood-b1"}, []string{"one-cycle"}, []int{128, 256, 512})
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.Config{Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunGrid(context.Background(), grid, cfg, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineColdCache measures a cold cached run (compute + encode
// + atomic write): the cache layer's overhead over an uncached run of
// the same specs.
func BenchmarkEngineColdCache(b *testing.B) {
	cfg := engine.Config{Quick: true, Seed: 1}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store, err := results.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		eng := harness.NewEngine(engine.WithStore(store))
		b.StartTimer()
		if _, err := eng.Stream(context.Background(), io.Discard, report.Markdown{}, report.Meta{}, cfg, engineBenchIDs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWarmCache measures serving a report entirely from the
// warm cache — the bccd hot path: key derivation, disk read, decode,
// render, zero experiment executions.
func BenchmarkEngineWarmCache(b *testing.B) {
	cfg := engine.Config{Quick: true, Seed: 1}
	store, err := results.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	warm := harness.NewEngine(engine.WithStore(store))
	if _, err := warm.Stream(context.Background(), io.Discard, report.Markdown{}, report.Meta{}, cfg, engineBenchIDs, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := warm.Stream(context.Background(), io.Discard, report.Markdown{}, report.Meta{}, cfg, engineBenchIDs, nil); err != nil {
			b.Fatal(err)
		}
	}
	if warm.Executions() != int64(len(engineBenchIDs)) {
		b.Fatalf("warm runs re-executed experiments (%d executions)", warm.Executions())
	}
}

// --- Scale benchmarks (BENCH_scale.json baseline) ---------------------
//
// The Scale* group measures the large-n substrate introduced for the
// extended E17/E18 sweep ladders: CSR graph construction against the
// sorted-insertion AddEdge path on the same edge lists, the
// zero-allocation neighbour iteration the runner hot loops rely on, and
// an end-to-end large-n protocol cell.

// scaleEdges pre-draws the er-threshold edge list at n = 4096 once (and
// lazily — the ~8.4M Bernoulli draws must not tax ordinary test runs),
// so the build benchmarks measure substrate cost, not rng cost.
var scaleEdges = sync.OnceValue(func() [][2]int {
	const n = scaleN
	rng := rand.New(rand.NewSource(1))
	p := math.Log(float64(n)) / float64(n)
	var es [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				es = append(es, [2]int{u, v})
			}
		}
	}
	return es
})

const scaleN = 4096

// BenchmarkScaleBuildERAddEdge is the legacy construction path: one
// sorted insertion (plus its duplicate-check binary search) per edge.
func BenchmarkScaleBuildERAddEdge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := graph.New(scaleN)
		for _, e := range scaleEdges() {
			g.MustAddEdge(e[0], e[1])
		}
	}
}

// BenchmarkScaleBuildERBuilder is the CSR path on the same edges:
// append-only accumulation, one sort/dedup at Freeze.
func BenchmarkScaleBuildERBuilder(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bu := graph.NewBuilder(scaleN)
		for _, e := range scaleEdges() {
			bu.MustAdd(e[0], e[1])
		}
		bu.MustFreeze()
	}
}

// BenchmarkScaleBuildBarbellFamily builds the densest sweep family
// (n/2-cliques, Θ(n²) edges) end to end through the family registry —
// the generator the CSR builder speeds up the most.
func BenchmarkScaleBuildBarbellFamily(b *testing.B) {
	benchmarkScaleBuild(b, "barbell")
}

// BenchmarkScaleBuildGridFamily builds the grid family at n = 1024 end
// to end. Build's arboricity ≤ 2 check peels the grid to an empty
// 3-core, so its allocs/op gate that the peel stays a single O(n + m)
// pass: the whole build is a few dozen allocations.
func BenchmarkScaleBuildGridFamily(b *testing.B) {
	benchmarkScaleBuild(b, "grid")
}

// BenchmarkScaleBuildTorusFamily builds the torus family at n = 1024
// (32×32, 4-regular) end to end. At its declared arboricity ≤ 3 the
// torus is its own 4-core, so the generator returns its three forests
// and the check verifies them (one union-find, one Freeze); its
// allocs/op gate that the witness check stays a single pass, about a
// hundred allocations, where the matroid search it replaced made
// about 4,300.
func BenchmarkScaleBuildTorusFamily(b *testing.B) {
	benchmarkScaleBuild(b, "torus")
}

// benchmarkScaleBuild builds the named family at n = 1024, seed 1,
// through the registry, Check included.
func benchmarkScaleBuild(b *testing.B, name string) {
	fam, ok := family.Lookup(name)
	if !ok {
		b.Fatalf("%s family missing", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fam.Build(1024, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleNeighborIteration measures the allocation-free
// NeighborSlice scan over a frozen er-threshold graph — the access
// pattern of delivery tables, ground-truth labelling and the protocol
// adapters. The acceptance bar is 0 allocs/op.
func BenchmarkScaleNeighborIteration(b *testing.B) {
	bu := graph.NewBuilder(scaleN)
	for _, e := range scaleEdges() {
		bu.MustAdd(e[0], e[1])
	}
	g := bu.MustFreeze()
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		for v := 0; v < g.N(); v++ {
			for _, u := range g.NeighborSlice(v) {
				sum += u
			}
		}
	}
	if sum == 1 {
		b.Fatal("impossible") // keep the loop live
	}
}

// BenchmarkScaleBoruvkaTwoCycle1024 is one large-n sweep cell run end
// to end: family build, implicit canonical KT-1 instance, and the
// transcript-free simulator fed from pooled arenas.
func BenchmarkScaleBoruvkaTwoCycle1024(b *testing.B) {
	p, ok := protocol.Lookup("boruvka")
	if !ok {
		b.Fatal("boruvka protocol missing")
	}
	fam, ok := family.Lookup("two-cycle")
	if !ok {
		b.Fatal("two-cycle family missing")
	}
	g, err := fam.Build(1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := p.Run(context.Background(), g, 1)
		if err != nil {
			b.Fatal(err)
		}
		if out.Verdict != bcc.VerdictNo {
			b.Fatal("two-cycle must be rejected")
		}
	}
}
