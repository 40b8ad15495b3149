// Package family is the graph-family generator registry of the scenario
// subsystem: deterministic, seeded generators for every input class the
// sweep grids quantify over — the paper's hard instances (one-cycle,
// two-cycle, and the crossed two-cycle that the Section 3 crossing
// argument pairs them with), Erdős–Rényi graphs at and around the
// connectivity threshold, planted k-component graphs, bounded-arboricity
// forest unions (the promise class of sketch.Connectivity), grids and
// tori, random 4-regular graphs, and the star/path/barbell degenerates.
//
// Every family declares the invariants its outputs satisfy (connectivity,
// component count, regularity, an arboricity upper bound) and Build
// verifies them on every generated graph, so a generator bug surfaces as
// an error instead of a silently wrong experiment row. Families also
// expose a canonical Key that feeds the engine's content-addressed cache:
// changing a generator's declared parameters (or bumping its version in
// the same commit as a logic change) invalidates every cached sweep cell
// that used it.
//
// Determinism contract: Build(n, seed) is a pure function of (n, seed) —
// two builds with equal arguments return equal graphs, which is what lets
// sweep cells be cached and recomputed interchangeably.
package family

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"bcclique/internal/dsu"
	"bcclique/internal/graph"
)

// Tri is a three-valued declared invariant: a family may guarantee a
// property, guarantee its negation, or leave it to the instance (e.g.
// Erdős–Rényi connectivity at the threshold).
type Tri int

// The three invariant states.
const (
	Unknown Tri = iota
	No
	Yes
)

// String implements fmt.Stringer.
func (t Tri) String() string {
	switch t {
	case No:
		return "no"
	case Yes:
		return "yes"
	default:
		return "unknown"
	}
}

// Invariants are the properties a family declares for every graph it
// generates. Zero values mean "unspecified": Check skips them.
type Invariants struct {
	// Connected declares whether every generated graph is connected.
	Connected Tri
	// Components is the declared connected-component count (0 =
	// unspecified).
	Components int
	// Regular is the declared uniform degree (0 = unspecified).
	Regular int
	// MaxArboricity is a declared arboricity upper bound a (0 =
	// unspecified). Check certifies it in one of two ways: the
	// generator's forests, verified exactly (at most a of them, each
	// acyclic, together covering every edge once), or, when the
	// generator returns none, an O(n + m) peel of the vertices of
	// degree ≤ a that leaves nothing (degeneracy ≤ a). A bound that
	// neither certifies is a Build error, never a silent pass.
	MaxArboricity int
}

// Family is one registered graph-family generator.
type Family struct {
	name    string
	params  string // canonical parameter encoding, part of Key
	version int    // bumped in the same commit as a generator logic change
	minN    int
	inv     Invariants
	build   buildFunc
}

// buildFunc generates a family's size-n graph from rng. A generator
// whose graphs carry a declared arboricity bound but need not peel to
// an empty (a+1)-core also returns the forests that partition the
// graph's edges, which Check verifies; every other generator returns
// nil forests, usually through plain.
type buildFunc func(n int, rng *rand.Rand) (*graph.Graph, [][]graph.Edge, error)

// plain adapts a forest-free generator's result to buildFunc.
func plain(g *graph.Graph, err error) (*graph.Graph, [][]graph.Edge, error) { return g, nil, err }

// Name returns the registry name.
func (f *Family) Name() string { return f.name }

// Params returns the canonical parameter encoding.
func (f *Family) Params() string { return f.params }

// MinN returns the smallest supported instance size.
func (f *Family) MinN() int { return f.minN }

// Invariants returns the declared invariants.
func (f *Family) Invariants() Invariants { return f.inv }

// Key is the canonical encoding of the family's declarative surface. It
// feeds the engine's content-addressed cache key for every sweep cell
// that uses this family, so cached cells are invalidated whenever a
// family's parameters or version change.
func (f *Family) Key() string {
	return fmt.Sprintf("family=%s;v=%d;minn=%d;params{%s}", f.name, f.version, f.minN, f.params)
}

// Build generates the family's size-n instance for the given seed and
// verifies the declared invariants. Build(n, seed) is deterministic:
// equal arguments produce equal graphs.
func (f *Family) Build(n int, seed int64) (*graph.Graph, error) {
	if n < f.minN {
		return nil, fmt.Errorf("family %s: n=%d below minimum %d", f.name, n, f.minN)
	}
	g, forests, err := f.build(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("family %s: %w", f.name, err)
	}
	if err := f.Check(g, n, forests); err != nil {
		return nil, err
	}
	return g, nil
}

// Check verifies that g satisfies the family's declared invariants for
// size n. forests is the generator's arboricity witness (nil when it
// has none; see Invariants.MaxArboricity). Build calls it on every
// generated graph; tests call it directly.
func (f *Family) Check(g *graph.Graph, n int, forests [][]graph.Edge) error {
	if g.N() != n {
		return fmt.Errorf("family %s: generated %d vertices, want %d", f.name, g.N(), n)
	}
	if f.inv.Connected != Unknown || f.inv.Components > 0 {
		comps := g.NumComponents() // one union-find pass serves both checks
		connected := n == 0 || comps == 1
		if f.inv.Connected == Yes && !connected {
			return fmt.Errorf("family %s: declared connected, generated %d components", f.name, comps)
		}
		if f.inv.Connected == No && connected {
			return fmt.Errorf("family %s: declared disconnected, generated a connected graph", f.name)
		}
		if k := f.inv.Components; k > 0 && comps != k {
			return fmt.Errorf("family %s: declared %d components, generated %d", f.name, k, comps)
		}
	}
	if d := f.inv.Regular; d > 0 {
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != d {
				return fmt.Errorf("family %s: declared %d-regular, vertex %d has degree %d", f.name, d, v, g.Degree(v))
			}
		}
	}
	if a := f.inv.MaxArboricity; a > 0 {
		if err := checkArboricity(g, a, forests); err != nil {
			return fmt.Errorf("family %s: %w", f.name, err)
		}
	}
	return nil
}

// checkArboricity certifies that g's edges split into at most a
// forests, in one of two ways, and errors when neither applies.
//
// A generator that returns forests hands over the partition itself, and
// it is verified exactly, with O(m·α(n)) union-find work and one Freeze:
// there are at most a forests, each is acyclic under one reused
// union-find, and their edges, frozen through a graph.Builder, equal
// g's (Freeze rejects an edge that two forests share). The forest
// unions and the torus return forests.
//
// Without forests, g must peel to an empty (a+1)-core. peel removes,
// again and again, a vertex whose remaining degree is at most a. Put
// the peeled vertices back in the reverse of their peeling order: when
// a vertex v comes back, at most a of its edges reach vertices already
// present (those peeled after v), so each of them can go into a forest
// of its own. v is new to each of those forests and enters it as a
// leaf, so no cycle closes. Degeneracy ≤ a thus certifies arboricity
// ≤ a. Cycles, paths, stars and grids peel empty.
func checkArboricity(g *graph.Graph, a int, forests [][]graph.Edge) error {
	if len(forests) == 0 {
		if core := peel(g, a); core > 0 {
			return fmt.Errorf("declared arboricity ≤ %d, but the %d-core keeps %d vertices and no forests were given", a, a+1, core)
		}
		return nil
	}
	if len(forests) > a {
		return fmt.Errorf("declared arboricity ≤ %d, given %d forests", a, len(forests))
	}
	n := g.N()
	b := graph.NewBuilder(n)
	var tree dsu.DSU
	for i, forest := range forests {
		tree.Reset(n)
		for _, e := range forest {
			if err := b.Add(e.U, e.V); err != nil {
				return fmt.Errorf("forest %d: %w", i, err)
			}
			if !tree.Union(e.U, e.V) {
				return fmt.Errorf("forest %d: edge {%d,%d} closes a cycle", i, e.U, e.V)
			}
		}
	}
	h, err := b.Freeze()
	if err != nil { // a repeat within one forest closes a cycle above
		return fmt.Errorf("two forests share an edge: %w", err)
	}
	if !h.Equal(g) {
		return fmt.Errorf("forests do not cover the graph's edges (%d forest edges, %d graph edges)", h.M(), g.M())
	}
	return nil
}

// peel removes the vertices of g whose remaining degree is at most a,
// until none is left, and returns the size of the (a+1)-core that
// remains. It is O(n + m) and walks g's adjacency in place. The
// remaining degrees (−1 for a peeled vertex) and the stack of vertices
// due to be peeled share one allocation; a vertex is pushed once, when
// its degree first drops to a.
func peel(g *graph.Graph, a int) (core int) {
	n := g.N()
	buf := make([]int32, 2*n)
	deg, stack := buf[:n], buf[n:n]
	for v := range deg {
		deg[v] = int32(g.Degree(v))
		if deg[v] <= int32(a) {
			stack = append(stack, int32(v))
		}
	}
	core = n
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		deg[v] = -1
		core--
		for _, u := range g.NeighborSlice(int(v)) {
			if deg[u] < 0 {
				continue
			}
			if deg[u]--; deg[u] == int32(a) {
				stack = append(stack, int32(u))
			}
		}
	}
	return core
}

// registry is the fixed family list, in registry order. Generators must
// be pure functions of (n, rng); they must not read any other source of
// randomness or nondeterministic state (map iteration included). A
// family that declares an arboricity bound a must either peel to an
// empty (a+1)-core or return its forests (forest-2, forest-3, torus).
var registry = []*Family{
	{
		name: "one-cycle", params: "kind=hamiltonian-cycle", version: 1, minN: 3,
		inv: Invariants{Connected: Yes, Components: 1, Regular: 2, MaxArboricity: 2},
		build: func(n int, rng *rand.Rand) (*graph.Graph, [][]graph.Edge, error) {
			return plain(graph.RandomOneCycle(n, rng), nil)
		},
	},
	{
		name: "two-cycle", params: "kind=two-cycle;split=n/2", version: 1, minN: 6,
		inv: Invariants{Connected: No, Components: 2, Regular: 2, MaxArboricity: 2},
		build: func(n int, rng *rand.Rand) (*graph.Graph, [][]graph.Edge, error) {
			return plain(graph.RandomTwoCycle(n, n/2, rng))
		},
	},
	{
		name: "crossed-two-cycle", params: "kind=two-cycle-crossed;split=n/2", version: 1, minN: 6,
		inv:   Invariants{Connected: Yes, Components: 1, Regular: 2, MaxArboricity: 2},
		build: buildCrossedTwoCycle,
	},
	{
		name: "er-threshold", params: "p=ln(n)/n", version: 1, minN: 4,
		inv:   Invariants{},
		build: erBuilder(1.0),
	},
	{
		name: "er-sub", params: "p=0.5*ln(n)/n", version: 1, minN: 4,
		inv:   Invariants{},
		build: erBuilder(0.5),
	},
	{
		name: "er-super", params: "p=2*ln(n)/n", version: 1, minN: 4,
		inv:   Invariants{},
		build: erBuilder(2.0),
	},
	{
		name: "planted-2", params: "k=2", version: 1, minN: 4,
		inv:   Invariants{Connected: No, Components: 2},
		build: plantedBuilder(2),
	},
	{
		name: "planted-4", params: "k=4", version: 1, minN: 8,
		inv:   Invariants{Connected: No, Components: 4},
		build: plantedBuilder(4),
	},
	{
		name: "forest-2", params: "a=2;base=spanning-tree", version: 1, minN: 4,
		inv:   Invariants{Connected: Yes, Components: 1, MaxArboricity: 2},
		build: forestUnionBuilder(2),
	},
	{
		name: "forest-3", params: "a=3;base=spanning-tree", version: 1, minN: 4,
		inv:   Invariants{Connected: Yes, Components: 1, MaxArboricity: 3},
		build: forestUnionBuilder(3),
	},
	{
		name: "grid", params: "rows=maxdiv(n)", version: 1, minN: 2,
		inv:   Invariants{Connected: Yes, Components: 1, MaxArboricity: 2},
		build: buildGrid,
	},
	{
		name: "torus", params: "rows=maxdiv(n);wrap=dims>=3", version: 1, minN: 3,
		inv:   Invariants{Connected: Yes, Components: 1, MaxArboricity: 3},
		build: buildTorus,
	},
	{
		name: "4-regular", params: "d=4;model=pairing", version: 1, minN: 6,
		inv:   Invariants{Regular: 4},
		build: buildFourRegular,
	},
	{
		name: "star", params: "center=0", version: 1, minN: 2,
		inv: Invariants{Connected: Yes, Components: 1, MaxArboricity: 1},
		build: func(n int, _ *rand.Rand) (*graph.Graph, [][]graph.Edge, error) {
			b := graph.NewBuilder(n)
			for i := 1; i < n; i++ {
				b.MustAdd(0, i)
			}
			return plain(b.Freeze())
		},
	},
	{
		name: "path", params: "order=0..n-1", version: 1, minN: 2,
		inv: Invariants{Connected: Yes, Components: 1, MaxArboricity: 1},
		build: func(n int, _ *rand.Rand) (*graph.Graph, [][]graph.Edge, error) {
			b := graph.NewBuilder(n)
			for i := 1; i < n; i++ {
				b.MustAdd(i-1, i)
			}
			return plain(b.Freeze())
		},
	},
	{
		name: "barbell", params: "cliques=n/2;bridge=1", version: 1, minN: 6,
		inv:   Invariants{Connected: Yes, Components: 1},
		build: buildBarbell,
	},
}

// All returns the registry in registry order.
func All() []*Family { return append([]*Family(nil), registry...) }

// Lookup finds a family by name.
func Lookup(name string) (*Family, bool) {
	for _, f := range registry {
		if f.name == name {
			return f, true
		}
	}
	return nil, false
}

// Names returns the registered family names in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, f := range registry {
		out[i] = f.name
	}
	return out
}

// buildCrossedTwoCycle builds the one-cycle obtained by crossing one
// edge pair of a two-cycle cover (Definition 3.3 applied once): the
// generated graph differs from the same-seed two-cycle in exactly four
// edges — the paired hard instances of the Section 3 indistinguishability
// argument. The two-cycle is perm[:k], perm[k:] of one rng.Perm(n), and
// crossing {perm[k-1], perm[0]} × {perm[n-1], perm[k]} (removing one edge
// of each cycle and reconnecting across) leaves the single cycle
// perm[0..n-1]. That is the cycle RandomOneCycle draws from the same
// rng, so it is drawn directly, without building the two-cycle first.
func buildCrossedTwoCycle(n int, rng *rand.Rand) (*graph.Graph, [][]graph.Edge, error) {
	return plain(graph.RandomOneCycle(n, rng), nil)
}

// erBuilder returns the G(n, c·ln(n)/n) generator. c = 1 sits at the
// connectivity threshold; c = 0.5 below it (disconnected w.h.p.), c = 2
// above it (connected w.h.p.). No connectivity invariant is declared —
// the threshold behaviour is exactly what sweeps over these families
// measure.
func erBuilder(c float64) buildFunc {
	return func(n int, rng *rand.Rand) (*graph.Graph, [][]graph.Edge, error) {
		p := c * math.Log(float64(n)) / float64(n)
		if p > 1 {
			p = 1
		}
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					b.MustAdd(u, v)
				}
			}
		}
		return plain(b.Freeze())
	}
}

// plantedBuilder returns the planted-k-component generator: a random
// vertex relabelling split into k balanced groups, each wired as a
// random recursive tree plus a few extra intra-group edges. Exactly k
// components by construction — the hard NO instances of E18.
func plantedBuilder(k int) buildFunc {
	return func(n int, rng *rand.Rand) (*graph.Graph, [][]graph.Edge, error) {
		if n < 2*k {
			return nil, nil, fmt.Errorf("n=%d cannot hold %d components of ≥ 2 vertices", n, k)
		}
		perm := rng.Perm(n)
		b := graph.NewBuilder(n)
		for j := 0; j < k; j++ {
			lo, hi := j*n/k, (j+1)*n/k
			group := perm[lo:hi]
			for i := 1; i < len(group); i++ {
				b.MustAdd(group[i], group[rng.Intn(i)])
			}
			for t := 0; t < len(group)/2; t++ {
				u, v := group[rng.Intn(len(group))], group[rng.Intn(len(group))]
				if u != v && !b.Has(u, v) {
					b.MustAdd(u, v)
				}
			}
		}
		return plain(b.Freeze())
	}
}

// forestUnionBuilder returns the bounded-arboricity generator: a random
// recursive spanning tree (connectivity) unioned with a−1 random partial
// forests. Arboricity ≤ a by construction — the promise class of
// sketch.Connectivity — and the tree and the layers are the forests it
// returns.
func forestUnionBuilder(a int) buildFunc {
	return func(n int, rng *rand.Rand) (*graph.Graph, [][]graph.Edge, error) {
		perm := rng.Perm(n)
		b := graph.NewBuilder(n)
		forests := make([][]graph.Edge, a)
		add := func(layer, u, v int) {
			b.MustAdd(u, v)
			forests[layer] = append(forests[layer], graph.NormEdge(u, v))
		}
		for i := 1; i < n; i++ {
			add(0, perm[i], perm[rng.Intn(i)])
		}
		var forest dsu.DSU
		for layer := 1; layer < a; layer++ {
			forest.Reset(n)
			for t := 0; t < 2*n; t++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v || b.Has(u, v) || !forest.Union(u, v) {
					continue
				}
				add(layer, u, v)
			}
		}
		g, err := b.Freeze()
		return g, forests, err
	}
}

// gridDims returns the most-square factorization r×c = n with r ≤ c.
// Prime n degenerates to 1×n (a path), which still satisfies the grid
// family's declared invariants.
func gridDims(n int) (r, c int) {
	r = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			r = d
		}
	}
	return r, n / r
}

// addGridEdges passes the r×c lattice edges shared by the grid and
// torus families to add, each with the torus forest it belongs to: 0
// for the rows' paths and column 0's path (a spanning tree), 1 for the
// other columns' paths.
func addGridEdges(r, c int, add func(forest, u, v int)) {
	at := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				add(0, at(i, j), at(i, j+1))
			}
			if i+1 < r {
				add(min(j, 1), at(i, j), at(i+1, j))
			}
		}
	}
}

func buildGrid(n int, _ *rand.Rand) (*graph.Graph, [][]graph.Edge, error) {
	r, c := gridDims(n)
	b := graph.NewBuilder(n)
	addGridEdges(r, c, func(_, u, v int) { b.MustAdd(u, v) })
	return plain(b.Freeze())
}

// buildTorus is the grid plus wraparound edges, and returns it as three
// forests: the grid's two, with each row wrap in forest 1 as a leaf
// (i, 0) on column c−1's path, and the column wraps, a matching, as
// forest 2.
func buildTorus(n int, _ *rand.Rand) (*graph.Graph, [][]graph.Edge, error) {
	r, c := gridDims(n)
	b := graph.NewBuilder(n)
	forests := make([][]graph.Edge, 3)
	add := func(forest, u, v int) {
		b.MustAdd(u, v)
		forests[forest] = append(forests[forest], graph.NormEdge(u, v))
	}
	addGridEdges(r, c, add)
	at := func(i, j int) int { return i*c + j }
	// Wraparound edges only along dimensions of length ≥ 3: shorter
	// dimensions would duplicate an existing edge or form a self loop.
	if c >= 3 {
		for i := 0; i < r; i++ {
			add(1, at(i, c-1), at(i, 0))
		}
	}
	if r >= 3 {
		for j := 0; j < c; j++ {
			add(2, at(r-1, j), at(0, j))
		}
	}
	g, err := b.Freeze()
	return g, forests, err
}

// buildFourRegular samples a random simple 4-regular graph by the
// pairing (configuration) model with rejection: four points per vertex,
// a random perfect matching of the points, rejected on self loops or
// duplicate edges. A draw is accepted with probability about
// e^(−(d²−1)/4) = e^(−15/4) ≈ 1/42.5, and less at small n: over seeds
// 1..400, draws averaged 62 at n = 16 and 42–48 at n = 64, 256 and
// 1024, and reached 330. So 200 attempts failed at 15 of 400 seeds at
// n = 16, and at 7, 5 and 4 of 400 at n = 64, 256 and 1024; 4096 fail
// with probability about e^(−66) at n = 16, and less above. Each retry
// continues the same rng stream, so the limit changes no graph that an
// earlier limit built.
func buildFourRegular(n int, rng *rand.Rand) (*graph.Graph, [][]graph.Edge, error) {
	const d, attempts = 4, 4096
	for try := 0; try < attempts; try++ {
		points := make([]int, n*d)
		for i := range points {
			points[i] = i / d
		}
		rng.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
		b := graph.NewBuilder(n)
		ok := true
		for i := 0; i < len(points); i += 2 {
			u, v := points[i], points[i+1]
			if u == v || b.Has(u, v) {
				ok = false
				break
			}
			b.MustAdd(u, v)
		}
		if ok {
			return plain(b.Freeze())
		}
	}
	return nil, nil, fmt.Errorf("pairing model rejected %d attempts at n=%d", attempts, n)
}

// buildBarbell joins two cliques of ⌊n/2⌋ and ⌈n/2⌉ vertices by a single
// bridge edge — a dense connected instance whose minimum degree exceeds
// every constant peeling threshold, so promise algorithms must refuse it
// detectably rather than answer.
func buildBarbell(n int, _ *rand.Rand) (*graph.Graph, [][]graph.Edge, error) {
	k := n / 2
	b := graph.NewBuilder(n)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.MustAdd(u, v)
		}
	}
	for u := k; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.MustAdd(u, v)
		}
	}
	b.MustAdd(k-1, k)
	return plain(b.Freeze())
}

// Describe renders a one-line human summary of every registered family,
// for CLI usage strings.
func Describe() string {
	names := Names()
	sort.Strings(names)
	return strings.Join(names, ", ")
}
