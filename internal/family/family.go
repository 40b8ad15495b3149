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
	// unspecified), verified exactly by ForestPartition: an O(n + m)
	// peel of the vertices of degree ≤ a certifies it when nothing is
	// left (degeneracy ≤ a), and otherwise the (a+1)-core that remains
	// must have its edges partitioned into a forests.
	MaxArboricity int
}

// Family is one registered graph-family generator.
type Family struct {
	name    string
	params  string // canonical parameter encoding, part of Key
	version int    // bumped in the same commit as a generator logic change
	minN    int
	inv     Invariants
	build   func(n int, rng *rand.Rand) (*graph.Graph, error)
}

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
	g, err := f.build(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("family %s: %w", f.name, err)
	}
	if err := f.Check(g, n); err != nil {
		return nil, err
	}
	return g, nil
}

// Check verifies that g satisfies the family's declared invariants for
// size n. Build calls it on every generated graph; tests call it
// directly.
func (f *Family) Check(g *graph.Graph, n int) error {
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
		if !ForestPartition(g, a) {
			return fmt.Errorf("family %s: declared arboricity ≤ %d, no forest partition found", f.name, a)
		}
	}
	return nil
}

// ForestPartition reports whether the edge set of g can be partitioned
// into at most a forests — i.e. whether arboricity(g) ≤ a. The decision
// is exact, and it is made in two steps.
//
// First it peels: it removes, again and again, a vertex whose remaining
// degree is at most a, until none is left. What remains is the
// (a+1)-core, and g has an a-forest partition iff its core has one.
// One way is restriction. For the other, put the peeled vertices back
// in the reverse of their peeling order. When a vertex v comes back, at
// most a of its edges reach vertices already present (those peeled
// after v, and the core), so each of them can go into a forest of its
// own. v is new to each of those forests and enters it as a leaf, so no
// cycle closes. An empty core therefore answers yes: degeneracy ≤ a
// certifies arboricity ≤ a.
//
// Only a non-empty core is searched. Its edges are inserted, in g's
// adjacency order, into the a-fold union of graphic matroids with
// augmenting-path search (an edge that closes a cycle in every forest
// may displace a cycle edge into another forest, transitively), so by
// matroid-union theory a failed augmentation certifies that no
// partition exists.
//
// Cost: the peel is O(n + m) over one int32 array and walks g's
// adjacency in place. Cycles, paths, stars and grids peel to an empty
// core and never reach the search. In the search, an edge that some
// forest accepts takes O(a·α(n)) union-find queries; only an edge that
// closes a cycle in every forest pays for tree-path searches, each a
// breadth-first scan of one tree. insert offers each edge to every
// forest before it searches any path: on a torus an edge that forest 0
// rejects is nearly always accepted by forest 1, and a search of forest
// 0's tree would be thrown away.
func ForestPartition(g *graph.Graph, a int) bool {
	if a < 1 {
		return g.M() == 0
	}
	deg, core := peel(g, a)
	if core == 0 {
		return true
	}
	p := newForestPartitioner(g.N(), a)
	for u := range deg {
		if deg[u] < 0 {
			continue
		}
		for _, v := range g.NeighborSlice(u) {
			if u < v && deg[v] >= 0 && !p.insert(graph.Edge{U: u, V: v}) {
				return false
			}
		}
	}
	return true
}

// peel removes the vertices of g whose remaining degree is at most a,
// until none is left, and returns each vertex's degree within the
// (a+1)-core that remains (−1 for a peeled vertex) and the core's size.
// The degrees and the stack of vertices due to be peeled share one
// allocation; a vertex is pushed once, when its degree first drops to a.
func peel(g *graph.Graph, a int) (deg []int32, core int) {
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
	return deg, core
}

// forestPartitioner maintains a partition of an incrementally grown edge
// set into k forests. Each layer carries a union-find connectivity
// oracle so the common case — "does this layer accept the edge?" — is
// O(α) instead of a breadth-first scan of the whole tree; the oracle is
// invalidated (and lazily rebuilt) on the rare displacement unlinks,
// which union-find cannot replay.
type forestPartitioner struct {
	n       int
	k       int
	layerOf map[graph.Edge]int
	adj     [][][]int  // adj[layer][v] = neighbours of v within that forest
	conn    []*dsu.DSU // conn[layer] = same-tree oracle; nil when stale
}

func newForestPartitioner(n, k int) *forestPartitioner {
	p := &forestPartitioner{
		n: n, k: k,
		layerOf: make(map[graph.Edge]int),
		adj:     make([][][]int, k),
		conn:    make([]*dsu.DSU, k),
	}
	for i := range p.adj {
		p.adj[i] = make([][]int, n)
		p.conn[i] = dsu.New(n)
	}
	return p
}

// sameTree reports whether u and v lie in one tree of the given layer,
// rebuilding the layer's union-find oracle if a displacement staled it.
func (p *forestPartitioner) sameTree(layer, u, v int) bool {
	d := p.conn[layer]
	if d == nil {
		d = dsu.New(p.n)
		for x := 0; x < p.n; x++ {
			for _, w := range p.adj[layer][x] {
				if x < w {
					d.Union(x, w)
				}
			}
		}
		p.conn[layer] = d
	}
	return d.Same(u, v)
}

func (p *forestPartitioner) link(layer int, e graph.Edge) {
	p.layerOf[e] = layer
	p.adj[layer][e.U] = append(p.adj[layer][e.U], e.V)
	p.adj[layer][e.V] = append(p.adj[layer][e.V], e.U)
	if d := p.conn[layer]; d != nil {
		d.Union(e.U, e.V)
	}
}

func (p *forestPartitioner) unlink(layer int, e graph.Edge) {
	delete(p.layerOf, e)
	for _, end := range [2]struct{ at, drop int }{{e.U, e.V}, {e.V, e.U}} {
		a := p.adj[layer][end.at]
		for i, w := range a {
			if w == end.drop {
				p.adj[layer][end.at] = append(a[:i], a[i+1:]...)
				break
			}
		}
	}
	p.conn[layer] = nil // union-find cannot split; rebuild on next query
}

// treePath returns the vertex path from u to v within one forest layer
// (nil if u and v lie in different trees).
func (p *forestPartitioner) treePath(layer, u, v int) []int {
	prev := map[int]int{u: u}
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == v {
			var path []int
			for at := v; ; at = prev[at] {
				path = append(path, at)
				if at == u {
					return path
				}
			}
		}
		for _, w := range p.adj[layer][x] {
			if _, seen := prev[w]; !seen {
				prev[w] = x
				queue = append(queue, w)
			}
		}
	}
	return nil
}

// insert adds e0 to the partition, displacing cycle edges between
// forests via breadth-first augmenting search when no forest accepts it
// directly. A false return certifies the grown edge set has no k-forest
// partition. Each dequeued edge goes to the lowest layer that accepts
// it; the layers' tree paths, and the search's maps, are built only
// when none does.
func (p *forestPartitioner) insert(e0 graph.Edge) bool {
	type hop struct {
		via   graph.Edge // the edge that wants to enter…
		layer int        // …this layer, once the child edge vacates it
	}
	var parent map[graph.Edge]hop
	var visited map[graph.Edge]bool
	queue := []graph.Edge{e0}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		own, assigned := p.layerOf[x]
		for i := 0; i < p.k; i++ {
			if assigned && own == i {
				continue
			}
			if !p.sameTree(i, x.U, x.V) {
				// Layer i accepts x: place it and cascade the parents
				// into the layers their children just vacated.
				cur, dest := x, i
				for {
					old, assigned := p.layerOf[cur]
					if assigned {
						p.unlink(old, cur)
					}
					p.link(dest, cur)
					pr, ok := parent[cur]
					if !ok {
						return true
					}
					cur, dest = pr.via, pr.layer
				}
			}
		}
		if visited == nil {
			parent = make(map[graph.Edge]hop)
			visited = map[graph.Edge]bool{e0: true}
		}
		for i := 0; i < p.k; i++ {
			if assigned && own == i {
				continue
			}
			// No layer accepts x: each tree path it closes is the
			// displacement frontier.
			path := p.treePath(i, x.U, x.V)
			for j := 1; j < len(path); j++ {
				f := graph.NormEdge(path[j-1], path[j])
				if !visited[f] {
					visited[f] = true
					parent[f] = hop{via: x, layer: i}
					queue = append(queue, f)
				}
			}
		}
	}
	return false
}

// registry is the fixed family list, in registry order. Generators must
// be pure functions of (n, rng); they must not read any other source of
// randomness or nondeterministic state (map iteration included).
var registry = []*Family{
	{
		name: "one-cycle", params: "kind=hamiltonian-cycle", version: 1, minN: 3,
		inv: Invariants{Connected: Yes, Components: 1, Regular: 2, MaxArboricity: 2},
		build: func(n int, rng *rand.Rand) (*graph.Graph, error) {
			return graph.RandomOneCycle(n, rng), nil
		},
	},
	{
		name: "two-cycle", params: "kind=two-cycle;split=n/2", version: 1, minN: 6,
		inv: Invariants{Connected: No, Components: 2, Regular: 2, MaxArboricity: 2},
		build: func(n int, rng *rand.Rand) (*graph.Graph, error) {
			return graph.RandomTwoCycle(n, n/2, rng)
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
		build: func(n int, _ *rand.Rand) (*graph.Graph, error) {
			b := graph.NewBuilder(n)
			for i := 1; i < n; i++ {
				b.MustAdd(0, i)
			}
			return b.Freeze()
		},
	},
	{
		name: "path", params: "order=0..n-1", version: 1, minN: 2,
		inv: Invariants{Connected: Yes, Components: 1, MaxArboricity: 1},
		build: func(n int, _ *rand.Rand) (*graph.Graph, error) {
			b := graph.NewBuilder(n)
			for i := 1; i < n; i++ {
				b.MustAdd(i-1, i)
			}
			return b.Freeze()
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
func buildCrossedTwoCycle(n int, rng *rand.Rand) (*graph.Graph, error) {
	return graph.RandomOneCycle(n, rng), nil
}

// erBuilder returns the G(n, c·ln(n)/n) generator. c = 1 sits at the
// connectivity threshold; c = 0.5 below it (disconnected w.h.p.), c = 2
// above it (connected w.h.p.). No connectivity invariant is declared —
// the threshold behaviour is exactly what sweeps over these families
// measure.
func erBuilder(c float64) func(int, *rand.Rand) (*graph.Graph, error) {
	return func(n int, rng *rand.Rand) (*graph.Graph, error) {
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
		return b.Freeze()
	}
}

// plantedBuilder returns the planted-k-component generator: a random
// vertex relabelling split into k balanced groups, each wired as a
// random recursive tree plus a few extra intra-group edges. Exactly k
// components by construction — the hard NO instances of E18.
func plantedBuilder(k int) func(int, *rand.Rand) (*graph.Graph, error) {
	return func(n int, rng *rand.Rand) (*graph.Graph, error) {
		if n < 2*k {
			return nil, fmt.Errorf("n=%d cannot hold %d components of ≥ 2 vertices", n, k)
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
		return b.Freeze()
	}
}

// forestUnionBuilder returns the bounded-arboricity generator: a random
// recursive spanning tree (connectivity) unioned with a−1 random partial
// forests. Arboricity ≤ a by construction — the promise class of
// sketch.Connectivity.
func forestUnionBuilder(a int) func(int, *rand.Rand) (*graph.Graph, error) {
	return func(n int, rng *rand.Rand) (*graph.Graph, error) {
		perm := rng.Perm(n)
		b := graph.NewBuilder(n)
		for i := 1; i < n; i++ {
			b.MustAdd(perm[i], perm[rng.Intn(i)])
		}
		for layer := 1; layer < a; layer++ {
			forest := dsu.New(n)
			for t := 0; t < 2*n; t++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v || b.Has(u, v) || forest.Find(u) == forest.Find(v) {
					continue
				}
				forest.Union(u, v)
				b.MustAdd(u, v)
			}
		}
		return b.Freeze()
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

// addGridEdges appends the r×c lattice edges shared by the grid and
// torus families.
func addGridEdges(b *graph.Builder, r, c int) {
	at := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				b.MustAdd(at(i, j), at(i, j+1))
			}
			if i+1 < r {
				b.MustAdd(at(i, j), at(i+1, j))
			}
		}
	}
}

func buildGrid(n int, _ *rand.Rand) (*graph.Graph, error) {
	r, c := gridDims(n)
	b := graph.NewBuilder(n)
	addGridEdges(b, r, c)
	return b.Freeze()
}

func buildTorus(n int, _ *rand.Rand) (*graph.Graph, error) {
	r, c := gridDims(n)
	b := graph.NewBuilder(n)
	addGridEdges(b, r, c)
	at := func(i, j int) int { return i*c + j }
	// Wraparound edges only along dimensions of length ≥ 3: shorter
	// dimensions would duplicate an existing edge or form a self loop.
	if c >= 3 {
		for i := 0; i < r; i++ {
			b.MustAdd(at(i, c-1), at(i, 0))
		}
	}
	if r >= 3 {
		for j := 0; j < c; j++ {
			b.MustAdd(at(r-1, j), at(0, j))
		}
	}
	return b.Freeze()
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
func buildFourRegular(n int, rng *rand.Rand) (*graph.Graph, error) {
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
			return b.Freeze()
		}
	}
	return nil, fmt.Errorf("pairing model rejected %d attempts at n=%d", attempts, n)
}

// buildBarbell joins two cliques of ⌊n/2⌋ and ⌈n/2⌉ vertices by a single
// bridge edge — a dense connected instance whose minimum degree exceeds
// every constant peeling threshold, so promise algorithms must refuse it
// detectably rather than answer.
func buildBarbell(n int, _ *rand.Rand) (*graph.Graph, error) {
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
	return b.Freeze()
}

// Describe renders a one-line human summary of every registered family,
// for CLI usage strings.
func Describe() string {
	names := Names()
	sort.Strings(names)
	return strings.Join(names, ", ")
}
