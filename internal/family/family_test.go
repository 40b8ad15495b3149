package family

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"bcclique/internal/dsu"
	"bcclique/internal/graph"
)

// testSizes returns sizes every family supports, spanning the sweep
// range the grids use.
func testSizes(f *Family) []int {
	var sizes []int
	for _, n := range []int{8, 12, 16, 32} {
		if n >= f.MinN() {
			sizes = append(sizes, n)
		}
	}
	return sizes
}

// TestDeterministicBuild pins the determinism contract: two builds with
// the same (n, seed) are byte-identical graphs, and a different seed
// produces a different graph for every randomized family.
func TestDeterministicBuild(t *testing.T) {
	for _, f := range All() {
		for _, n := range testSizes(f) {
			g1, err := f.Build(n, 7)
			if err != nil {
				t.Fatalf("%s n=%d: %v", f.Name(), n, err)
			}
			g2, err := f.Build(n, 7)
			if err != nil {
				t.Fatalf("%s n=%d rebuild: %v", f.Name(), n, err)
			}
			if !g1.Equal(g2) {
				t.Errorf("%s n=%d: two builds with seed 7 differ", f.Name(), n)
			}
			if g1.Key() != g2.Key() {
				t.Errorf("%s n=%d: canonical encodings differ under one seed", f.Name(), n)
			}
		}
	}
}

// TestSeedChangesRandomFamilies checks that the seed actually drives the
// randomized generators (deterministic degenerates are exempt).
func TestSeedChangesRandomFamilies(t *testing.T) {
	deterministic := map[string]bool{"star": true, "path": true, "grid": true, "torus": true, "barbell": true}
	for _, f := range All() {
		if deterministic[f.Name()] {
			continue
		}
		n := 32
		differs := false
		base, err := f.Build(n, 1)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		for seed := int64(2); seed <= 5; seed++ {
			g, err := f.Build(n, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", f.Name(), seed, err)
			}
			if !base.Equal(g) {
				differs = true
				break
			}
		}
		if !differs {
			t.Errorf("%s: seeds 1..5 all produce the same graph", f.Name())
		}
	}
}

// TestDeclaredInvariantsHold runs every family's generator at several
// sizes and seeds, checks the graph with the generator's own forests,
// and re-checks the declared invariants explicitly (Build already
// checks; this pins that Check itself verifies what each family
// declares), the arboricity bound against the reference search.
func TestDeclaredInvariantsHold(t *testing.T) {
	for _, f := range All() {
		inv := f.Invariants()
		for _, n := range testSizes(f) {
			for seed := int64(1); seed <= 3; seed++ {
				g, forests, err := f.build(n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", f.Name(), n, seed, err)
				}
				if err := f.Check(g, n, forests); err != nil {
					t.Errorf("%s n=%d seed=%d: %v", f.Name(), n, seed, err)
				}
				if inv.Connected == Yes && !g.IsConnected() {
					t.Errorf("%s n=%d seed=%d: not connected", f.Name(), n, seed)
				}
				if inv.Connected == No && g.IsConnected() {
					t.Errorf("%s n=%d seed=%d: unexpectedly connected", f.Name(), n, seed)
				}
				if inv.Components > 0 && g.NumComponents() != inv.Components {
					t.Errorf("%s n=%d seed=%d: %d components, declared %d",
						f.Name(), n, seed, g.NumComponents(), inv.Components)
				}
				if inv.MaxArboricity > 0 && !searchForests(g, inv.MaxArboricity) {
					t.Errorf("%s n=%d seed=%d: no %d-forest partition", f.Name(), n, seed, inv.MaxArboricity)
				}
			}
		}
	}
}

// TestCheckRejectsViolations makes sure Check is not a rubber stamp.
func TestCheckRejectsViolations(t *testing.T) {
	star, _ := Lookup("star")
	g := graph.New(8) // edgeless: disconnected, violates the star invariants
	if err := star.Check(g, 8, nil); err == nil {
		t.Error("Check accepted a disconnected graph for a connected family")
	}
	if err := star.Check(g, 9, nil); err == nil {
		t.Error("Check accepted a wrong vertex count")
	}
	planted, _ := Lookup("planted-2")
	one, err := Lookup("one-cycle")
	if !err {
		t.Fatal("one-cycle missing")
	}
	cyc, buildErr := one.Build(8, 1)
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	if err := planted.Check(cyc, 8, nil); err == nil {
		t.Error("Check accepted a connected graph for planted-2")
	}
}

// TestCrossedTwoCyclePairsWithTwoCycle pins the crossing relationship:
// the crossed family at (n, seed) is one n-cycle that differs from the
// two-cycle family at the same (n, seed) by one Definition 3.3 crossing.
// Two edges are removed, one from each cycle, and two are added, each
// joining the two cycles.
func TestCrossedTwoCyclePairsWithTwoCycle(t *testing.T) {
	crossed, _ := Lookup("crossed-two-cycle")
	two, _ := Lookup("two-cycle")
	for _, n := range []int{6, 16, 64, 1024} {
		for seed := int64(1); seed <= 3; seed++ {
			g, err := crossed.Build(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			h, err := two.Build(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			lengths, ok := g.CycleLengths()
			if !ok || len(lengths) != 1 || lengths[0] != n {
				t.Errorf("n=%d seed=%d: crossed graph is not a single %d-cycle (%v)", n, seed, n, lengths)
			}
			comp := h.ComponentLabels()
			removed, added := edgesNotIn(h, g), edgesNotIn(g, h)
			if len(removed) != 2 || len(added) != 2 {
				t.Fatalf("n=%d seed=%d: crossing removed %v and added %v, want two edges each", n, seed, removed, added)
			}
			if comp[removed[0].U] == comp[removed[1].U] {
				t.Errorf("n=%d seed=%d: removed edges %v lie in one cycle", n, seed, removed)
			}
			for _, e := range added {
				if comp[e.U] == comp[e.V] {
					t.Errorf("n=%d seed=%d: added edge %v does not join the two cycles", n, seed, e)
				}
			}
		}
	}
}

// edgesNotIn lists the edges of g that h lacks.
func edgesNotIn(g, h *graph.Graph) []graph.Edge {
	var out []graph.Edge
	for _, e := range g.Edges() {
		if !h.HasEdge(e.U, e.V) {
			out = append(out, e)
		}
	}
	return out
}

// TestFourRegularBuildsAtEverySeed pins the pairing model's retry limit:
// a draw is accepted with probability about e^(−15/4), and 200 attempts
// failed at a few percent of seeds.
func TestFourRegularBuildsAtEverySeed(t *testing.T) {
	f, _ := Lookup("4-regular")
	for _, n := range []int{16, 64, 256} {
		for seed := int64(1); seed <= 200; seed++ {
			if _, err := f.Build(n, seed); err != nil {
				t.Errorf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

// TestCheckRejectsForgedWitnesses feeds Check forged forests and pins
// that each is rejected for its own reason: the arboricity witness is a
// proof only if every one of its checks runs. The hand graph is a
// 4-cycle 0-1-2-3 with the chord {0,2}, two forests at a = 2.
func TestCheckRejectsForgedWitnesses(t *testing.T) {
	two := &Family{name: "forged", inv: Invariants{MaxArboricity: 2}}
	b := graph.NewBuilder(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}} {
		b.MustAdd(e[0], e[1])
	}
	g := b.MustFreeze()
	path := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}
	rest := []graph.Edge{{U: 0, V: 3}, {U: 0, V: 2}}
	torus, _ := Lookup("torus")
	tg, tforests, err := torus.build(64, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		f       *Family
		g       *graph.Graph
		forests [][]graph.Edge
		want    string // a fragment of the error; "" for a valid witness
	}{
		{"the path and the rest", two, g, [][]graph.Edge{path, rest}, ""},
		{"an edge in two forests", two, g, [][]graph.Edge{path, append(rest[:2:2], graph.Edge{U: 1, V: 2})}, "already present"},
		{"a missing edge", two, g, [][]graph.Edge{path, rest[:1]}, "do not cover"},
		{"an edge that closes a cycle", two, g, [][]graph.Edge{append(path[:3:3], rest[0]), rest[1:]}, "closes a cycle"},
		{"an edge not in g", two, g, [][]graph.Edge{path, append(rest[:2:2], graph.Edge{U: 1, V: 3})}, "do not cover"},
		{"an edge out of range", two, g, [][]graph.Edge{path, append(rest[:2:2], graph.Edge{U: 1, V: 4})}, "out of range"},
		{"a+1 forests", two, g, [][]graph.Edge{path, rest[:1], rest[1:]}, "given 3 forests"},
		{"the torus with its forests", torus, tg, tforests, ""},
		{"the torus without forests", torus, tg, nil, "4-core keeps 64 vertices"},
	} {
		err := tc.f.Check(tc.g, tc.g.N(), tc.forests)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not say %q", tc.name, err, tc.want)
		}
	}
}

// TestWitnessFamiliesBuildAtEveryN builds the families that return
// forests at every n from MinN to 130, seeds 1–3: each Build verifies
// the witness, and the range covers the torus's prime-n (1×n) and
// two-row (no column wrap) shapes as well as its full 3-forest one.
func TestWitnessFamiliesBuildAtEveryN(t *testing.T) {
	for _, name := range []string{"forest-2", "forest-3", "torus"} {
		f, _ := Lookup(name)
		for n := f.MinN(); n <= 130; n++ {
			for seed := int64(1); seed <= 3; seed++ {
				if _, err := f.Build(n, seed); err != nil {
					t.Errorf("n=%d seed=%d: %v", n, seed, err)
				}
			}
		}
	}
}

// TestForestPartition sanity-checks the reference search on graphs
// with known arboricity.
func TestForestPartition(t *testing.T) {
	// A tree fits one forest.
	path := graph.New(5)
	for i := 1; i < 5; i++ {
		path.MustAddEdge(i-1, i)
	}
	if !searchForests(path, 1) {
		t.Error("path should fit 1 forest")
	}
	// K4 has arboricity 2: 6 edges > 3 = n−1 rules out 1 forest.
	k4 := graph.New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			k4.MustAddEdge(u, v)
		}
	}
	if searchForests(k4, 1) {
		t.Error("K4 cannot fit 1 forest")
	}
	if !searchForests(k4, 2) {
		t.Error("K4 should fit 2 forests")
	}
}

// TestForestPartitionMatchesNashWilliams pins the reference search
// exact on small random graphs, dense enough that edges must be
// displaced between forests: searchForests(g, a) must agree with the
// Nash-Williams formula, arboricity(g) = max over vertex sets S with
// |S| ≥ 2 of ⌈m(S)/(|S|−1)⌉, enumerated by bitmask. The peel must
// never say yes above the arboricity.
func TestForestPartitionMatchesNashWilliams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(10)
		density := rng.Float64()
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < density {
					g.MustAddEdge(u, v)
				}
			}
		}
		arb := nashWilliams(g)
		for a := 1; a <= 4; a++ {
			if got := searchForests(g, a); got != (arb <= a) {
				t.Fatalf("trial %d (n=%d, m=%d, arboricity %d): searchForests(g, %d) = %v",
					trial, n, g.M(), arb, a, got)
			}
			if checkArboricity(g, a, nil) == nil && arb > a {
				t.Fatalf("trial %d (n=%d, m=%d, arboricity %d): the peel certifies a = %d",
					trial, n, g.M(), arb, a)
			}
		}
	}
}

// TestForestPartitionMatchesSearch holds what Check certifies to the
// reference search: wherever the peel or a generator's forests say yes,
// the search must say yes too. It runs every registry family at n = 16,
// 64 and 256, seeds 1–3, at a from 1 to its declared bound (at least
// 2). At a = 1 a cycle is its own 2-core and has no 1-forest partition,
// so a peel that goes one degree too far fails here. On random G(n, m)
// graphs, m > a(n−1) edges prove "no" by counting, so there the peel
// must leave a core; above that, a peel's yes is held to the search.
func TestForestPartitionMatchesSearch(t *testing.T) {
	for _, f := range All() {
		for _, n := range []int{16, 64, 256} {
			if n < f.MinN() {
				continue
			}
			for seed := int64(1); seed <= 3; seed++ {
				g, forests, err := f.build(n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				for a := 1; a <= max(f.Invariants().MaxArboricity, 2); a++ {
					if checkArboricity(g, a, forests) == nil && !searchForests(g, a) {
						t.Errorf("%s n=%d seed=%d: certified at a = %d, the search finds no partition", f.Name(), n, seed, a)
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 256} {
		for _, m := range []int{n - 1, 2 * n, 3 * n, 4 * n} {
			g := randomGNM(n, m, rng)
			for a := 1; ; a++ {
				err := checkArboricity(g, a, nil)
				if m > a*(n-1) {
					if err == nil {
						t.Errorf("G(%d, %d): the peel certifies a = %d, but %d edges need more forests", n, m, a, m)
					}
					continue
				}
				if err == nil {
					if !searchForests(g, a) {
						t.Errorf("G(%d, %d): the peel certifies a = %d, the search finds no partition", n, m, a)
					}
					break
				}
			}
		}
	}
}

// TestForestPartitionPeelsSparseFamilies pins which families Check
// certifies by the peel at their declared bound: the 2-regular families
// and the grid peel to an empty core at a = 2, and the star and the
// path at a = 1; the 4-regular torus is its own 4-core at a = 3, so it
// must return forests.
func TestForestPartitionPeelsSparseFamilies(t *testing.T) {
	for _, tc := range []struct {
		family string
		a      int
		empty  bool
	}{
		{"one-cycle", 2, true},
		{"two-cycle", 2, true},
		{"crossed-two-cycle", 2, true},
		{"grid", 2, true},
		{"star", 1, true},
		{"path", 1, true},
		{"torus", 3, false},
	} {
		f, _ := Lookup(tc.family)
		for _, n := range []int{16, 64, 256} {
			g, err := f.Build(n, 1)
			if err != nil {
				t.Fatal(err)
			}
			if core := peel(g, tc.a); (core == 0) != tc.empty {
				t.Errorf("%s n=%d a=%d: (a+1)-core has %d vertices", tc.family, n, tc.a, core)
			}
		}
	}
}

// searchForests is the reference arboricity decision: it inserts every
// edge of g, in order, into the a-fold union of graphic matroids with
// augmenting-path search (an edge that closes a cycle in every forest
// may displace a cycle edge into another forest, transitively), so by
// matroid-union theory a failed augmentation certifies that no
// a-forest partition exists. It is exact, and slow on dense inputs.
func searchForests(g *graph.Graph, a int) bool {
	p := newForestPartitioner(g.N(), a)
	for _, e := range g.Edges() {
		if !p.insert(e) {
			return false
		}
	}
	return true
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

// randomGNM draws a uniform simple graph with n vertices and m edges.
func randomGNM(n, m int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for added := 0; added < m; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !b.Has(u, v) {
			b.MustAdd(u, v)
			added++
		}
	}
	return b.MustFreeze()
}

// nashWilliams is the brute-force arboricity oracle: the densest vertex
// subset's ⌈m(S)/(|S|−1)⌉.
func nashWilliams(g *graph.Graph) int {
	edges := g.Edges()
	arb := 0
	for set := uint(1); set < 1<<g.N(); set++ {
		size := bits.OnesCount(set)
		if size < 2 {
			continue
		}
		m := 0
		for _, e := range edges {
			if set>>e.U&1 == 1 && set>>e.V&1 == 1 {
				m++
			}
		}
		arb = max(arb, (m+size-2)/(size-1))
	}
	return arb
}

// TestKeyGolden pins the canonical cache-key encoding of every family:
// these strings feed the content-addressed result cache, so an
// accidental change here would silently invalidate (or worse, silently
// reuse) every cached sweep cell. Change a family's params or version
// deliberately, then update this table in the same commit.
func TestKeyGolden(t *testing.T) {
	want := map[string]string{
		"one-cycle":         "family=one-cycle;v=1;minn=3;params{kind=hamiltonian-cycle}",
		"two-cycle":         "family=two-cycle;v=1;minn=6;params{kind=two-cycle;split=n/2}",
		"crossed-two-cycle": "family=crossed-two-cycle;v=1;minn=6;params{kind=two-cycle-crossed;split=n/2}",
		"er-threshold":      "family=er-threshold;v=1;minn=4;params{p=ln(n)/n}",
		"er-sub":            "family=er-sub;v=1;minn=4;params{p=0.5*ln(n)/n}",
		"er-super":          "family=er-super;v=1;minn=4;params{p=2*ln(n)/n}",
		"planted-2":         "family=planted-2;v=1;minn=4;params{k=2}",
		"planted-4":         "family=planted-4;v=1;minn=8;params{k=4}",
		"forest-2":          "family=forest-2;v=1;minn=4;params{a=2;base=spanning-tree}",
		"forest-3":          "family=forest-3;v=1;minn=4;params{a=3;base=spanning-tree}",
		"grid":              "family=grid;v=1;minn=2;params{rows=maxdiv(n)}",
		"torus":             "family=torus;v=1;minn=3;params{rows=maxdiv(n);wrap=dims>=3}",
		"4-regular":         "family=4-regular;v=1;minn=6;params{d=4;model=pairing}",
		"star":              "family=star;v=1;minn=2;params{center=0}",
		"path":              "family=path;v=1;minn=2;params{order=0..n-1}",
		"barbell":           "family=barbell;v=1;minn=6;params{cliques=n/2;bridge=1}",
	}
	fams := All()
	if len(fams) != len(want) {
		t.Fatalf("registry has %d families, golden table has %d", len(fams), len(want))
	}
	for _, f := range fams {
		if got := f.Key(); got != want[f.Name()] {
			t.Errorf("%s key = %q, want %q", f.Name(), got, want[f.Name()])
		}
	}
}

// TestLookupAndNames covers the registry surface.
func TestLookupAndNames(t *testing.T) {
	names := Names()
	if len(names) != len(All()) {
		t.Fatal("Names and All disagree")
	}
	for _, name := range names {
		f, ok := Lookup(name)
		if !ok || f.Name() != name {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted an unknown name")
	}
	if d := Describe(); !strings.Contains(d, "one-cycle") {
		t.Errorf("Describe() = %q", d)
	}
}

// TestBuildRejectsTooSmall pins the MinN guard.
func TestBuildRejectsTooSmall(t *testing.T) {
	two, _ := Lookup("two-cycle")
	if _, err := two.Build(5, 1); err == nil {
		t.Error("two-cycle accepted n=5")
	}
}
