package bcc

import (
	"fmt"
	"math/rand"
	"slices"
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

// seededPair builds the seeded instance and its twin: NewKT0 over the
// tables of a second seeded instance built from the same input and seed.
func seededPair(t *testing.T, g *graph.Graph, seed int64) (seeded, twin *Instance) {
	t.Helper()
	n := g.N()
	seeded, err := NewRandomKT0(SequentialIDs(n), g, seed)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewRandomKT0(SequentialIDs(n), g, seed)
	if err != nil {
		t.Fatal(err)
	}
	other.materialize()
	twin, err = NewKT0(SequentialIDs(n), g, other.ports)
	if err != nil {
		t.Fatal(err)
	}
	return seeded, twin
}

// TestRandomKT0MatchesRandomWiring holds the seeded constructor to what
// a RandomWiring row gives a vertex: each input neighbour behind its own
// port, so the kept ports are strictly ascending in [0, n−1) and
// NeighborAt and PortOf invert each other on them. Every input port
// must answer from the kept ports alone, with the tables still unbuilt,
// and a bound plane run must not build them either. The tables built
// afterwards must keep every input port where it was drawn, and two
// builds from one seed must be Equal both ways.
func TestRandomKT0MatchesRandomWiring(t *testing.T) {
	for _, n := range []int{2, 3, 64, 65, 513} {
		for name, g := range seededInputs(t, n) {
			for _, seed := range []int64{0, 1, -3, 1 << 40} {
				t.Run(fmt.Sprintf("n=%d/%s/seed=%d", n, name, seed), func(t *testing.T) {
					seeded, twin := seededPair(t, g, seed)
					kept := make([][]int, n) // kept[v][i] = the vertex behind v's i-th input port
					for v := 0; v < n; v++ {
						ports := seeded.InputPorts(v)
						if len(ports) != g.Degree(v) {
							t.Fatalf("InputPorts(%d) = %v for degree %d", v, ports, g.Degree(v))
						}
						for i, p := range ports {
							if p < 0 || p >= n-1 || i > 0 && p <= ports[i-1] {
								t.Fatalf("InputPorts(%d) = %v, want strictly ascending in [0, %d)", v, ports, n-1)
							}
							u := seeded.NeighborAt(v, p)
							if !g.HasEdge(v, u) || seeded.PortOf(v, u) != p {
								t.Fatalf("port %d of %d leads to %d, which is no input neighbour behind that port", p, v, u)
							}
							kept[v] = append(kept[v], u)
						}
					}
					res, err := Run(seeded, loopProbe{}, WithoutTranscripts())
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
						t.Fatal("two seeded instances from one seed differ")
					}
					seeded.materialize()
					for v := 0; v < n; v++ {
						for i, p := range seeded.InputPorts(v) {
							if u := seeded.ports[v][p]; u != kept[v][i] || seeded.portTo[v][u] != p {
								t.Fatalf("tables put vertex %d behind port %d of %d; the kept ports put %d there", u, p, v, kept[v][i])
							}
						}
					}
				})
			}
		}
	}
}

// TestRandomKT0PortsUniform checks that a seeded row is uniform over
// the (n−1)! port orders, as a RandomWiring row is: at n = 5, vertex
// 0's materialized row over fixed seeds, with no, two and four input
// neighbours (a row all shuffled, half drawn and half shuffled, all
// drawn). Each χ² statistic over the 24 orders must stay below 49.7,
// the p = 0.001 critical value at 23 degrees of freedom.
func TestRandomKT0PortsUniform(t *testing.T) {
	const n, perOrder = 5, 200
	complete := graph.New(n)
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			complete.MustAddEdge(u, w)
		}
	}
	for name, g := range map[string]*graph.Graph{"empty": graph.New(n), "one-cycle": cycleInput(t, n), "complete": complete} {
		counts := map[[n - 1]int]int{}
		for seed := int64(0); seed < 24*perOrder; seed++ {
			in, err := NewRandomKT0(SequentialIDs(n), g, seed)
			if err != nil {
				t.Fatal(err)
			}
			var row [n - 1]int
			for p := range row {
				row[p] = in.NeighborAt(0, p)
			}
			counts[row]++
		}
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c - perOrder)
			chi2 += d * d / perOrder
		}
		chi2 += float64(24-len(counts)) * perOrder // orders never drawn
		if chi2 >= 49.7 {
			t.Errorf("%s: χ² = %.1f over %d of 24 orders, want < 49.7", name, chi2, len(counts))
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
				if got, want := a.InputPorts(v), b.InputPorts(v); !slices.Equal(got, want) {
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
		if got, want := seeded.InputPorts(0), twin.InputPorts(0); !slices.Equal(got, want) {
			t.Fatalf("original's InputPorts(0) = %v after the clone's mutation, want %v", got, want)
		}
	})
}

// TestRandomKT0DeliversLikeTwin runs an unbound algorithm, which takes
// the Message vector's per-port delivery, on a seeded instance and on
// its twin, and reads what each node heard: every node must hear the
// same ID on every port, so the tables the delivery builds are the
// twin's.
func TestRandomKT0DeliversLikeTwin(t *testing.T) {
	const n = 65
	seeded, twin := seededPair(t, cycleInput(t, n), 5)
	heard := func(in *Instance) []*idBroadcastNode {
		t.Helper()
		nodes := make([]*idBroadcastNode, n)
		if _, err := Run(in, nodeCapturingAlgo{algo: idBroadcastAlgo{idBits: 7}, out: nodes}); err != nil {
			t.Fatal(err)
		}
		return nodes
	}
	got, want := heard(seeded), heard(twin)
	for v := 0; v < n; v++ {
		for p := 0; p < n-1; p++ {
			if g, w := got[v].portID(p), want[v].portID(p); g != w {
				t.Fatalf("vertex %d port %d: heard ID %d, twin's heard %d", v, p, g, w)
			}
		}
	}
}
