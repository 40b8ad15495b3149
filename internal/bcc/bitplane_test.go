package bcc_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"bcclique/internal/algorithms"
	"bcclique/internal/bcc"
	"bcclique/internal/graph"
)

// bitPlaneAlgos builds the three bit-plane riders sized for n-vertex
// degree-≤2 inputs.
func bitPlaneAlgos(t *testing.T, n int) map[string]bcc.Algorithm {
	t.Helper()
	idBits := max(1, bits.Len(uint(n-1)))
	flood, err := algorithms.NewFlood(1)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := algorithms.NewNeighborhoodBroadcast(2)
	if err != nil {
		t.Fatal(err)
	}
	kt0, err := algorithms.NewKT0Exchange(2, idBits)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]bcc.Algorithm{"flood-b1": flood, "neighborhood": nb, "kt0-exchange": kt0}
}

// bitPlaneInstances builds the instance sample the equivalence suite
// quantifies over: canonical KT-1 wirings (the sweep substrate, where
// the plane binds) and materialized KT-0 wirings (where flood's and
// neighborhood's nodes are all broken, and kt0-exchange's run accepts
// any wiring). One canonical instance adds a
// chord to the cycle: its two ends have degree 3, so they are broken
// and silent under neighborhood's and kt0-exchange's MaxDegree 2 while
// every other vertex in their plane words speaks.
func bitPlaneInstances(t *testing.T, n int, seed int64) map[string]*bcc.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cycle := graph.RandomOneCycle(n, rng)
	two, err := graph.RandomTwoCycle(n, n/2, rng)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*bcc.Instance)
	kt1One, err := bcc.NewKT1(bcc.SequentialIDs(n), cycle)
	if err != nil {
		t.Fatal(err)
	}
	out["kt1-one-cycle"] = kt1One
	kt1Two, err := bcc.NewKT1(bcc.SequentialIDs(n), two)
	if err != nil {
		t.Fatal(err)
	}
	out["kt1-two-cycle"] = kt1Two
	chord := cycle.Clone()
	for v := n / 2; ; v++ {
		if !chord.HasEdge(0, v) {
			chord.MustAddEdge(0, v)
			break
		}
	}
	kt1Chord, err := bcc.NewKT1(bcc.SequentialIDs(n), chord)
	if err != nil {
		t.Fatal(err)
	}
	out["kt1-chord"] = kt1Chord
	kt0Rot, err := bcc.NewKT0(bcc.SequentialIDs(n), cycle, bcc.RotationWiring(n))
	if err != nil {
		t.Fatal(err)
	}
	out["kt0-rotation"] = kt0Rot
	kt0Rand, err := bcc.NewKT0(bcc.SequentialIDs(n), two, bcc.RandomWiring(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	out["kt0-random"] = kt0Rand
	return out
}

// compareRuns pins every observable of a bit-plane run against the
// generic oracle run of the same (instance, algorithm, options).
func compareRuns(t *testing.T, in *bcc.Instance, algo bcc.Algorithm, opts ...bcc.Option) {
	t.Helper()
	fast, err := bcc.Run(in, algo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := bcc.Run(in, algo, append([]bcc.Option{bcc.WithoutBitPlane()}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.BitPlane {
		t.Fatal("oracle run claims the bit plane despite WithoutBitPlane")
	}
	if fast.Rounds != oracle.Rounds || fast.TotalBits != oracle.TotalBits {
		t.Fatalf("rounds/bits diverge: fast %d/%d, oracle %d/%d",
			fast.Rounds, fast.TotalBits, oracle.Rounds, oracle.TotalBits)
	}
	if !reflect.DeepEqual(fast.RoundBits, oracle.RoundBits) {
		t.Fatalf("RoundBits diverge:\nfast   %v\noracle %v", fast.RoundBits, oracle.RoundBits)
	}
	if fast.HasVerdict != oracle.HasVerdict || fast.Verdict != oracle.Verdict {
		t.Fatalf("verdict diverges: fast %v/%v, oracle %v/%v",
			fast.HasVerdict, fast.Verdict, oracle.HasVerdict, oracle.Verdict)
	}
	if !reflect.DeepEqual(fast.Labels, oracle.Labels) {
		t.Fatal("labels diverge")
	}
	if (fast.Transcripts == nil) != (oracle.Transcripts == nil) {
		t.Fatalf("transcript presence diverges: fast %v, oracle %v",
			fast.Transcripts != nil, oracle.Transcripts != nil)
	}
	if fast.Transcripts == nil {
		return
	}
	for v := range fast.Transcripts {
		if !reflect.DeepEqual(fast.Transcripts[v].Sent, oracle.Transcripts[v].Sent) {
			t.Fatalf("vertex %d Sent sequences diverge", v)
		}
	}
	fastTrits, err := bcc.SentTritLabels(fast)
	if err != nil {
		t.Fatal(err)
	}
	oracleTrits, err := bcc.SentTritLabels(oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fastTrits, oracleTrits) {
		t.Fatal("TritString labels diverge")
	}
}

// TestBitPlaneEquivalence pins the bit-plane path byte-identical to the
// generic Message oracle for every rider × instance × seed, in full
// transcript mode, under WithRounds truncation and extension, and in
// the sweeps' WithoutTranscripts mode. The sizes straddle the word
// boundaries of the planes: n = 22 (one word), n = 70 (two words, self
// bits landing in both), n = 130 (three words).
func TestBitPlaneEquivalence(t *testing.T) {
	for _, n := range []int{22, 70, 130} {
		for _, seed := range []int64{1, 2, 3} {
			if n > 22 && seed > 1 {
				continue // one seed suffices for the multi-word layouts
			}
			for inName, in := range bitPlaneInstances(t, n, seed) {
				for algoName, algo := range bitPlaneAlgos(t, n) {
					t.Run(fmt.Sprintf("%s/%s/n%d/seed%d", algoName, inName, n, seed), func(t *testing.T) {
						compareRuns(t, in, algo)
						rounds := algo.Rounds(n)
						compareRuns(t, in, algo, bcc.WithRounds(rounds/2))
						compareRuns(t, in, algo, bcc.WithRounds(rounds+3))
						compareRuns(t, in, algo, bcc.WithoutTranscripts())
					})
				}
			}
		}
	}
}

// hearOnly binds like neighborhood-broadcast, but its bound run is not
// a bcc.BitRun: the embedded interface hides BindPlane, SendBits and
// HearBits.
type hearOnly struct {
	*algorithms.NeighborhoodBroadcast
}

func (a hearOnly) BindRun(in *bcc.Instance, rounds int) bcc.BoundRun {
	return struct{ bcc.BoundRun }{a.NeighborhoodBroadcast.BindRun(in, rounds)}
}

// TestBitPlaneEngagement pins exactly when the fast path runs: 1-bit
// bound runs that implement bcc.BitRun, on any instance whose wiring
// the run accepts, and never under WithoutBitPlane, a multi-bit
// bandwidth, an unbound algorithm or a bound run that is not a BitRun,
// or (for flood) a non-canonical KT-1 wiring. Neighborhood's run
// accepts every wiring.
func TestBitPlaneEngagement(t *testing.T) {
	const n = 12
	g := graph.RandomOneCycle(n, rand.New(rand.NewSource(1)))
	canonical, err := bcc.NewKT1(bcc.SequentialIDs(n), g)
	if err != nil {
		t.Fatal(err)
	}
	// Non-ascending IDs force the materialized-wiring path.
	ids := make([]int, n)
	for i := range ids {
		ids[i] = (i*5 + 2) % n
	}
	shuffled, err := bcc.NewKT1(ids, g)
	if err != nil {
		t.Fatal(err)
	}
	flood1, err := algorithms.NewFlood(1)
	if err != nil {
		t.Fatal(err)
	}
	flood2, err := algorithms.NewFlood(2)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, want bool, in *bcc.Instance, algo bcc.Algorithm, opts ...bcc.Option) {
		t.Helper()
		res, err := bcc.Run(in, algo, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.BitPlane != want {
			t.Errorf("%s: BitPlane = %v, want %v", name, res.BitPlane, want)
		}
	}
	check("flood-b1 canonical", true, canonical, flood1)
	check("flood-b1 without-bit-plane", false, canonical, flood1, bcc.WithoutBitPlane())
	check("flood-b2 multi-bit", false, canonical, flood2)
	check("flood-b1 shuffled-ids", false, shuffled, flood1)
	boruvka, err := algorithms.NewBoruvka(4)
	if err != nil {
		t.Fatal(err)
	}
	check("boruvka generic", false, canonical, boruvka)
	nb, err := algorithms.NewNeighborhoodBroadcast(2)
	if err != nil {
		t.Fatal(err)
	}
	check("neighborhood canonical", true, canonical, nb)
	check("neighborhood shuffled-ids", true, shuffled, nb)
	check("bound run that is not a BitRun", false, canonical, hearOnly{nb})
	check("unbound neighborhood", false, canonical, struct{ bcc.Algorithm }{nb})
}

// TestBitPlaneConcurrent runs bit-plane and oracle pairs of flood-b1
// and neighborhood concurrently at several goroutine widths, all
// sharing the pooled plane/scratch arenas and bound runs — the
// data-race surface the -race CI job sweeps.
func TestBitPlaneConcurrent(t *testing.T) {
	const n = 18
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w + 1)))
					g := graph.RandomOneCycle(n, rng)
					in, err := bcc.NewKT1(bcc.SequentialIDs(n), g)
					if err != nil {
						t.Error(err)
						return
					}
					flood, err := algorithms.NewFlood(1)
					if err != nil {
						t.Error(err)
						return
					}
					nb, err := algorithms.NewNeighborhoodBroadcast(2)
					if err != nil {
						t.Error(err)
						return
					}
					for iter := 0; iter < 10; iter++ {
						algo := bcc.Algorithm(flood)
						if iter%2 == 1 {
							algo = nb
						}
						fast, err := bcc.Run(in, algo, bcc.WithoutTranscripts())
						if err != nil {
							t.Error(err)
							return
						}
						oracle, err := bcc.Run(in, algo, bcc.WithoutTranscripts(), bcc.WithoutBitPlane())
						if err != nil {
							t.Error(err)
							return
						}
						if !fast.BitPlane || fast.Verdict != oracle.Verdict || fast.TotalBits != oracle.TotalBits ||
							!reflect.DeepEqual(fast.RoundBits, oracle.RoundBits) || !reflect.DeepEqual(fast.Labels, oracle.Labels) {
							t.Errorf("concurrent %s bit-plane run diverged from oracle", algo.Name())
							return
						}
						bcc.Recycle(fast)
						bcc.Recycle(oracle)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestRecycleReturnsPooledSlices pins the Recycle contract: fields are
// nilled and a recycled slice does not corrupt a subsequent run.
func TestRecycleReturnsPooledSlices(t *testing.T) {
	const n = 10
	g := graph.RandomOneCycle(n, rand.New(rand.NewSource(3)))
	in, err := bcc.NewKT1(bcc.SequentialIDs(n), g)
	if err != nil {
		t.Fatal(err)
	}
	flood, err := algorithms.NewFlood(1)
	if err != nil {
		t.Fatal(err)
	}
	first, err := bcc.Run(in, flood)
	if err != nil {
		t.Fatal(err)
	}
	wantRB := append([]int(nil), first.RoundBits...)
	wantLabels := append([]int(nil), first.Labels...)
	bcc.Recycle(first)
	if first.RoundBits != nil || first.Labels != nil {
		t.Fatal("Recycle left pooled fields attached")
	}
	second, err := bcc.Run(in, flood)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.RoundBits, wantRB) || !reflect.DeepEqual(second.Labels, wantLabels) {
		t.Fatal("run after Recycle diverged")
	}
}
