package bcc

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"bcclique/internal/graph"
)

// seededInputs returns the input graphs the seeded-wiring tests run at
// n: the empty graph, a one-cycle, a graph whose vertex 0 is isolated
// while every later vertex has degree ≥ 3 (a circulant with offsets 1
// and 2 on vertices 1..n−1), G(n, 0.1), and up to n = 65 G(n, 0.5) and
// the complete graph G(n, 1). The isolated vertex catches a constructor
// that skips the draws of a vertex with no input edge; the G(n, p)
// inputs mark many of a vertex's n−1 slots at once. At n = 2 the single
// edge stands in for the rest.
func seededInputs(t *testing.T, n int) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{"empty": graph.New(n)}
	if n == 2 {
		g := graph.New(2)
		g.MustAddEdge(0, 1)
		out["edge"] = g
		return out
	}
	out["one-cycle"] = cycleInput(t, n)
	if n >= 5 {
		g := graph.New(n)
		for i := 0; i < n-1; i++ {
			for _, d := range []int{1, 2} {
				u, w := 1+i, 1+(i+d)%(n-1)
				if !g.HasEdge(u, w) {
					g.MustAddEdge(u, w)
				}
			}
		}
		out["isolated-0"] = g
	}
	ps := []float64{0.1}
	if n <= 65 {
		ps = append(ps, 0.5, 1)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for _, p := range ps {
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for w := u + 1; w < n; w++ {
				if rng.Float64() < p {
					g.MustAddEdge(u, w)
				}
			}
		}
		out[fmt.Sprintf("gnp-%g", p)] = g
	}
	return out
}

// seededPair builds the seeded instance and its NewKT0(RandomWiring)
// twin over the same input and seed.
func seededPair(t *testing.T, g *graph.Graph, seed int64) (seeded, twin *Instance) {
	t.Helper()
	n := g.N()
	seeded, err := NewRandomKT0(SequentialIDs(n), g, seed)
	if err != nil {
		t.Fatal(err)
	}
	twin, err = NewKT0(SequentialIDs(n), g, RandomWiring(n, rand.New(rand.NewSource(seed))))
	if err != nil {
		t.Fatal(err)
	}
	return seeded, twin
}

// TestRandomKT0MatchesRandomWiring pins the seeded constructor to the
// wiring RandomWiring draws from the same seed. kt0-exchange rows
// report rounds, bits and correctness, none of which depends on which
// port leads where, so identical rows cannot show the wiring unchanged;
// this test is what keeps the adapter's v=2 key honest. Every input
// port must answer from the kept ports alone, with the tables still
// unbuilt, and a bound plane run must not build them either; only then
// does Equal compare every port both ways.
func TestRandomKT0MatchesRandomWiring(t *testing.T) {
	for _, n := range []int{2, 3, 64, 65, 513} {
		for name, g := range seededInputs(t, n) {
			for _, seed := range []int64{0, 1, -3, 1 << 40} {
				t.Run(fmt.Sprintf("n=%d/%s/seed=%d", n, name, seed), func(t *testing.T) {
					seeded, twin := seededPair(t, g, seed)
					for v := 0; v < n; v++ {
						got, want := seeded.InputPorts(v), twin.InputPorts(v)
						if !intsEqual(got, want) {
							t.Fatalf("InputPorts(%d) = %v, want %v", v, got, want)
						}
						for _, p := range want {
							if got, want := seeded.NeighborAt(v, p), twin.NeighborAt(v, p); got != want {
								t.Fatalf("NeighborAt(%d, %d) = %d, want %d", v, p, got, want)
							}
						}
						for _, u := range g.NeighborSlice(v) {
							if got, want := seeded.PortOf(v, u), twin.PortOf(v, u); got != want {
								t.Fatalf("PortOf(%d, %d) = %d, want %d", v, u, got, want)
							}
						}
					}
					res, err := Run(seeded, loopProbe{plane: true}, WithoutTranscripts())
					if err != nil {
						t.Fatal(err)
					}
					if !res.BitPlane {
						t.Fatal("bound probe must ride the bit plane")
					}
					Recycle(res)
					if seeded.ports != nil || seeded.portTo != nil {
						t.Fatal("input-port reads or a bound plane run built the port tables")
					}
					if !seeded.Equal(twin) || !twin.Equal(seeded) {
						t.Fatal("seeded instance differs from its NewKT0(RandomWiring) twin")
					}
				})
			}
		}
	}
}

// next returns the replay's next Rand.Uint32 value, drawn the way
// shuffle draws it.
func (r *lagged) next() uint32 {
	if r.pos == len(r.x) {
		r.refill()
		r.pos = 0
	}
	r.pos++
	return uint32(r.x[r.pos-1] >> 31)
}

// TestLaggedMatchesMathRand pins the replay to math/rand's seeded
// source across many refills, for seeds its seeding normalises
// (0 and 2³¹−1 both become 89482311; negative seeds wrap).
func TestLaggedMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -3, 1<<31 - 1, 1 << 40, math.MinInt64} {
		var r lagged
		r.seed(seed)
		src := rand.New(rand.NewSource(seed))
		for k := 0; k < 100_000; k++ {
			if got, want := r.next(), src.Uint32(); got != want {
				t.Fatalf("seed %d: value %d is %#x, math/rand's Uint32 is %#x", seed, k, got, want)
			}
		}
	}
}

// TestShuffleMatchesRandShuffle pins shuffle to rand.Shuffle on an
// identity slice: the same permutation, and the same number of values
// taken, so the next value of both sources agrees. A shuffle of 2¹⁷
// retries a Lemire draw about once; it is the retry loop's pin, so at
// least one seed must retry, which shows as a shuffle that took more
// than len−1 values.
func TestShuffleMatchesRandShuffle(t *testing.T) {
	for _, size := range []int{1, 2, 3, 64, 1000, 2047, 1 << 17} {
		seeds, retried := 2, 0
		if size == 1<<17 {
			seeds = 8
		}
		for seed := int64(0); seed < int64(seeds); seed++ {
			var r lagged
			r.seed(seed)
			got := make([]int32, size)
			want := make([]int32, size)
			for i := range got {
				got[i], want[i] = int32(i), int32(i)
			}
			r.shuffle(got)
			rng := rand.New(rand.NewSource(seed))
			rng.Shuffle(size, func(i, j int) { want[i], want[j] = want[j], want[i] })
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("size %d seed %d: slot %d holds %d, rand.Shuffle put %d there", size, seed, i, got[i], want[i])
				}
			}
			next := rng.Uint32()
			if r.next() != next {
				t.Fatalf("size %d seed %d: shuffle took a different number of values than rand.Shuffle", size, seed)
			}
			fresh := rand.New(rand.NewSource(seed))
			for i := 1; i < size; i++ {
				fresh.Uint32()
			}
			if fresh.Uint32() != next {
				retried++
			}
		}
		if size == 1<<17 && retried == 0 {
			t.Fatalf("no shuffle of %d retried a draw in %d seeds", size, seeds)
		}
	}
}

// TestRandomKT0TablesBuildOnce has 8 goroutines read non-input ports of
// one fresh seeded instance at once, so the first read of each builds
// the shared tables; under -race (make stress) it checks that the
// build is safe for the concurrent readers a frozen instance has.
func TestRandomKT0TablesBuildOnce(t *testing.T) {
	const n = 65
	seeded, twin := seededPair(t, cycleInput(t, n), 7)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				v := (i + w*8) % n
				for p := 0; p < n-1; p++ {
					u := twin.NeighborAt(v, p)
					if g := twin.Input(); g.HasEdge(v, u) {
						continue
					}
					if got := seeded.NeighborAt(v, p); got != u {
						errs <- fmt.Errorf("NeighborAt(%d, %d) = %d, want %d", v, p, got, u)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRandomKT0MutationsMatchTwin applies each mutating primitive to a
// seeded instance and to its NewKT0 twin: the results must be equal,
// and a mutated clone must leave its seeded original untouched (the
// path crossings take).
func TestRandomKT0MutationsMatchTwin(t *testing.T) {
	const n = 64
	g := cycleInput(t, n)
	ops := map[string]func(*Instance) (*Instance, error){
		"clone": func(in *Instance) (*Instance, error) { return in.Clone(), nil },
		"swap": func(in *Instance) (*Instance, error) {
			return in, in.SwapPortTargets(5, in.PortOf(5, 6), 40)
		},
		"add": func(in *Instance) (*Instance, error) { return in, in.AddInputEdge(3, 30) },
		"remove": func(in *Instance) (*Instance, error) {
			return in, in.RemoveInputEdge(9, 10)
		},
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			seeded, twin := seededPair(t, g, 11)
			a, err := op(seeded)
			if err != nil {
				t.Fatal(err)
			}
			b, err := op(twin)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Equal(b) || !b.Equal(a) {
				t.Fatal("seeded instance and its twin differ after the same mutation")
			}
			for v := 0; v < n; v++ {
				if got, want := a.InputPorts(v), b.InputPorts(v); !intsEqual(got, want) {
					t.Fatalf("InputPorts(%d) = %v after %s, want %v", v, got, name, want)
				}
			}
		})
	}
	t.Run("mutated-clone", func(t *testing.T) {
		seeded, twin := seededPair(t, g, 11)
		c := seeded.Clone()
		if err := c.SwapPortTargets(0, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.AddInputEdge(0, 32); err != nil {
			t.Fatal(err)
		}
		if c.Equal(seeded) {
			t.Fatal("mutating the clone did not change it")
		}
		if !seeded.Equal(twin) {
			t.Fatal("mutating a clone changed its seeded original")
		}
		if got, want := seeded.InputPorts(0), twin.InputPorts(0); !intsEqual(got, want) {
			t.Fatalf("original's InputPorts(0) = %v after the clone's mutation, want %v", got, want)
		}
	})
}

// TestRandomKT0DeliversLikeTwin runs an unbound algorithm with received
// transcripts, which takes the Message vector's per-port delivery, on a
// seeded instance and on its twin: every inbox must match, so the
// tables the delivery builds are the twin's.
func TestRandomKT0DeliversLikeTwin(t *testing.T) {
	const n, rounds = 65, 3
	seeded, twin := seededPair(t, cycleInput(t, n), 5)
	got, err := Run(seeded, mixAlgo{rounds: rounds}, WithReceivedTranscripts())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(twin, mixAlgo{rounds: rounds}, WithReceivedTranscripts())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		for r := 0; r < rounds; r++ {
			for p, m := range want.Transcripts[v].Received[r] {
				if got.Transcripts[v].Received[r][p] != m {
					t.Fatalf("vertex %d round %d port %d: received %v, want %v", v, r+1, p, got.Transcripts[v].Received[r][p], m)
				}
			}
		}
	}
}
