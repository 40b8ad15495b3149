// Package indist builds the bipartite indistinguishability graph
// G^t_{x,y} of Definition 3.6 exactly, for small n, and provides the
// executable counterparts of the combinatorial lemmas that drive the
// paper's KT-0 constant-error lower bound (Theorem 3.1):
//
//   - Lemma 3.7 — degree profile of a one-cycle instance's neighbourhood;
//   - Lemma 3.8 — expansion |N(S)| ≥ |S|·Θ(log d);
//   - Lemma 3.9 — |V₂| = |V₁|·Θ(log n) census;
//   - Theorem 2.1 — Θ(log n)-star packings via k-matchings, and the
//     forced-error accounting they imply under the hard distribution µ
//     (half the mass uniform on V₁, half uniform on V₂).
//
// Vertices of the graph are input graphs: the port rewiring of
// Definition 3.3 preserves every per-vertex view, so instances related by
// crossings are identified by their input graphs — the same quotient the
// paper's counting uses. Activity labels come from a caller-supplied
// Labeler; for label functions arising from wiring-insensitive algorithms
// (see package algorithms), Lemma 3.4 makes the quotient exact.
package indist

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"

	"bcclique/internal/bcc"
	"bcclique/internal/crossing"
	"bcclique/internal/dsu"
	"bcclique/internal/graph"
	"bcclique/internal/matching"
	"bcclique/internal/parallel"
)

// Labeler assigns each vertex of an input graph its t-round broadcast
// sequence over {'0','1','_'}. It must be deterministic in the input
// graph, and safe to call from concurrent goroutines on distinct graphs —
// New fans labeling out onto the worker pool. (Closures over immutable
// state, like those from algorithms.TritLabeler, qualify; a labeler
// sharing a *rand.Rand or memoization map does not.)
type Labeler func(g *graph.Graph) ([]string, error)

// ZeroRoundLabeler labels every vertex with the empty sequence: the
// round-0 graph G⁰ in which every edge is active (used by Lemma 3.9).
func ZeroRoundLabeler(g *graph.Graph) ([]string, error) {
	return make([]string, g.N()), nil
}

// Graph is the bipartite indistinguishability graph G^t_{x,y} on all
// one-cycle instances (V₁) and all two-cycle instances (V₂) of K_n.
type Graph struct {
	n         int
	x, y      string
	oneCycles []*graph.Graph
	twoCycles []*graph.Graph
	active    []int    // active[i] = number of active edges of oneCycles[i]
	adj       [][]int  // adj[i] = sorted indices into twoCycles
	twoDeg    []int    // degree of each two-cycle instance
	twoSplit  [][2]int // active edges per cycle of each two-cycle instance, sorted
}

// twoCycleIndex maps a two-cycle instance's canonical edge set to its
// index. For n ≤ graph.MaxPackedKeyN (every enumerable size) the key is a
// single-word bitmask and crossed instances are looked up by XOR-flipping
// four edge bits; larger n falls back to string keys and graph cloning.
type twoCycleIndex struct {
	packed  map[uint64]int
	strings map[string]int
}

func newTwoCycleIndex(n int) *twoCycleIndex {
	if n <= graph.MaxPackedKeyN {
		return &twoCycleIndex{packed: make(map[uint64]int)}
	}
	return &twoCycleIndex{strings: make(map[string]int)}
}

func (ix *twoCycleIndex) add(gg *graph.Graph, j int) {
	if ix.packed != nil {
		k, _ := gg.PackedKey()
		ix.packed[k] = j
		return
	}
	ix.strings[gg.Key()] = j
}

// lookupCrossed returns the index of the instance obtained from gg by
// crossing e1 and e2. The packed path never materializes the crossed
// graph: a crossing removes (v1,u1), (v2,u2) and adds (v1,u2), (v2,u1),
// so its key is the source key with four bits flipped.
func (ix *twoCycleIndex) lookupCrossed(gg *graph.Graph, ggKey uint64, e1, e2 crossing.DirectedEdge) (int, bool, error) {
	if ix.packed != nil {
		n := gg.N()
		b1, _ := graph.EdgeBit(n, e1.V, e1.U)
		b2, _ := graph.EdgeBit(n, e2.V, e2.U)
		b3, _ := graph.EdgeBit(n, e1.V, e2.U)
		b4, _ := graph.EdgeBit(n, e2.V, e1.U)
		j, ok := ix.packed[ggKey^b1^b2^b3^b4]
		return j, ok, nil
	}
	cg, err := crossing.CrossGraph(gg, e1, e2)
	if err != nil {
		return 0, false, err
	}
	j, ok := ix.strings[cg.Key()]
	return j, ok, nil
}

// New builds G^t_{x,y} for ground size n: it enumerates every one-cycle
// and two-cycle input graph, labels them with the Labeler, and inserts an
// edge {I₁, I₂} whenever I₂ arises from I₁ by crossing two active
// independent consistently-oriented edges. Feasible for n ≤ 9 (|V₁| =
// (n−1)!/2). Labels are packed into bcc.TranscriptKeys, so sequences are
// limited to bcc.MaxKeyRounds (64) rounds — far beyond the t = O(log n)
// regime the construction is feasible for.
//
// Labeling and crossing enumeration fan out per instance onto the
// process-wide worker pool (see internal/parallel); the construction is
// bit-identical at every worker count because instances are enumerated
// sequentially and each parallel task writes only its own index.
func New(n int, labeler Labeler, x, y string) (*Graph, error) {
	if n < 6 {
		return nil, fmt.Errorf("indist: need n ≥ 6 for two-cycle instances, got %d", n)
	}
	g := &Graph{n: n, x: x, y: y}
	xKey, err := bcc.ParseKey(x)
	if err != nil {
		return nil, fmt.Errorf("indist: x label: %w", err)
	}
	yKey, err := bcc.ParseKey(y)
	if err != nil {
		return nil, fmt.Errorf("indist: y label: %w", err)
	}

	twoIndex := newTwoCycleIndex(n)
	err = graph.EachTwoCycle(n, 3, func(c1, c2 []int) bool {
		gg, err := graph.FromCycles(n, c1, c2)
		if err != nil {
			return false
		}
		twoIndex.add(gg, len(g.twoCycles))
		g.twoCycles = append(g.twoCycles, gg)
		return true
	})
	if err != nil {
		return nil, err
	}
	g.twoDeg = make([]int, len(g.twoCycles))
	g.twoSplit = make([][2]int, len(g.twoCycles))
	err = parallel.ForEach(len(g.twoCycles), func(j int) error {
		gg := g.twoCycles[j]
		labels, err := labeler(gg)
		if err != nil {
			return fmt.Errorf("indist: labeling two-cycle %d: %w", j, err)
		}
		keys, err := bcc.ParseKeys(labels)
		if err != nil {
			return fmt.Errorf("indist: two-cycle %d: %w", j, err)
		}
		split, err := activeSplit(gg, keys, xKey, yKey)
		if err != nil {
			return err
		}
		g.twoSplit[j] = split
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = graph.EachOneCycle(n, func(cycle []int) bool {
		gg, err := graph.FromCycle(n, cycle)
		if err != nil {
			return false
		}
		g.oneCycles = append(g.oneCycles, gg)
		return true
	})
	if err != nil {
		return nil, err
	}

	g.active = make([]int, len(g.oneCycles))
	g.adj = make([][]int, len(g.oneCycles))
	err = parallel.ForEach(len(g.oneCycles), func(i int) error {
		gg := g.oneCycles[i]
		labels, err := labeler(gg)
		if err != nil {
			return fmt.Errorf("indist: labeling one-cycle %d: %w", i, err)
		}
		if len(labels) != n {
			return fmt.Errorf("indist: labeler returned %d labels for n=%d", len(labels), n)
		}
		keys, err := bcc.ParseKeys(labels)
		if err != nil {
			return fmt.Errorf("indist: one-cycle %d: %w", i, err)
		}
		activeEdges, err := crossing.ActiveEdgesKeys(gg, keys, xKey, yKey)
		if err != nil {
			return err
		}
		g.active[i] = len(activeEdges)
		ggKey, _ := gg.PackedKey()
		seen := make(map[int]bool)
		for a, e1 := range activeEdges {
			for _, e2 := range activeEdges[a+1:] {
				if !crossing.Independent(gg, e1, e2) {
					continue
				}
				j, ok, err := twoIndex.lookupCrossed(gg, ggKey, e1, e2)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("indist: crossing of one-cycle %d is not a two-cycle cover", i)
				}
				if !seen[j] {
					seen[j] = true
					g.adj[i] = append(g.adj[i], j)
				}
			}
		}
		slices.Sort(g.adj[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Two-cycle degrees accumulate after the parallel sweep so no two
	// tasks ever write the same counter.
	for _, adj := range g.adj {
		for _, j := range adj {
			g.twoDeg[j]++
		}
	}
	return g, nil
}

// N returns the ground-set size n.
func (g *Graph) N() int { return g.n }

// NumOne returns |V₁|.
func (g *Graph) NumOne() int { return len(g.oneCycles) }

// NumTwo returns |V₂|.
func (g *Graph) NumTwo() int { return len(g.twoCycles) }

// OneCycle returns the i-th one-cycle input graph.
func (g *Graph) OneCycle(i int) *graph.Graph { return g.oneCycles[i] }

// TwoCycle returns the j-th two-cycle input graph.
func (g *Graph) TwoCycle(j int) *graph.Graph { return g.twoCycles[j] }

// ActiveCount returns the number of active edges of one-cycle instance i
// (the d of Lemmas 3.7 and 3.8).
func (g *Graph) ActiveCount(i int) int { return g.active[i] }

// DegreeOne returns the degree of one-cycle instance i.
func (g *Graph) DegreeOne(i int) int { return len(g.adj[i]) }

// DegreeTwo returns the degree of two-cycle instance j.
func (g *Graph) DegreeTwo(j int) int { return g.twoDeg[j] }

// Neighbors returns the two-cycle neighbours of one-cycle instance i.
func (g *Graph) Neighbors(i int) []int { return append([]int(nil), g.adj[i]...) }

// TotalEdges returns |E| of the bipartite graph.
func (g *Graph) TotalEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total
}

// CheckLemma37 verifies the content of Lemma 3.7 for one-cycle instance i:
// writing d for its active-edge count, for every split 3 ≤ s ≤ d/2 the
// instance must have at least d/2 neighbours whose two cycles carry
// exactly s and d−s active edges. (The paper expresses the conclusion via
// the neighbour's degree i·(d−i); exact construction shows the bipartite
// degree is 2·s·(d−s) when x = y because each undirected cross pair
// merges back into two distinct one-cycle instances, one per relative
// orientation — an inconsequential constant the asymptotic argument
// absorbs. Checking the split is the orientation-independent statement.)
func (g *Graph) CheckLemma37(i int) error {
	d := g.active[i]
	if d < 6 {
		return nil // no 3 ≤ s ≤ d/2 exists
	}
	splitCount := make(map[[2]int]int)
	for _, j := range g.adj[i] {
		splitCount[g.twoSplit[j]]++
	}
	for s := 3; s <= d/2; s++ {
		key := [2]int{s, d - s}
		if splitCount[key] < d/2 {
			return fmt.Errorf("indist: one-cycle %d (d=%d): only %d neighbours with active split (%d,%d), want ≥ %d",
				i, d, splitCount[key], s, d-s, d/2)
		}
	}
	return nil
}

// Split returns the active-edge split (sorted) of two-cycle instance j.
func (g *Graph) Split(j int) [2]int { return g.twoSplit[j] }

// activeSplit counts active edges in each cycle of a two-cycle cover.
func activeSplit(g2 *graph.Graph, keys []bcc.TranscriptKey, x, y bcc.TranscriptKey) ([2]int, error) {
	cycles, ok := g2.CycleDecomposition()
	if !ok || len(cycles) != 2 {
		return [2]int{}, fmt.Errorf("indist: graph is not a two-cycle cover")
	}
	var split [2]int
	for ci, c := range cycles {
		// The cycle's crossing-consistent orientation is whichever of its
		// two traversals the labels fit; take the richer one. (For x = y
		// both traversals agree.)
		fwd, bwd := 0, 0
		for i := range c {
			v, u := c[i], c[(i+1)%len(c)]
			if keys[v] == x && keys[u] == y {
				fwd++
			}
			if keys[u] == x && keys[v] == y {
				bwd++
			}
		}
		split[ci] = fwd
		if bwd > fwd {
			split[ci] = bwd
		}
	}
	if split[0] > split[1] {
		split[0], split[1] = split[1], split[0]
	}
	return split, nil
}

// ExpansionStats samples subsets S ⊆ V₁ of the given size and returns the
// minimum observed expansion |N(S)|/|S| (Lemma 3.8's quantity). Instances
// with no active edges are excluded from sampling.
func (g *Graph) ExpansionStats(subsetSize, samples int, rng *rand.Rand) (minExpansion float64, err error) {
	var candidates []int
	for i := range g.oneCycles {
		if len(g.adj[i]) > 0 {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return 0, fmt.Errorf("indist: no one-cycle instance has positive degree")
	}
	if subsetSize > len(candidates) {
		subsetSize = len(candidates)
	}
	minExpansion = math.Inf(1)
	for s := 0; s < samples; s++ {
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		subset := candidates[:subsetSize]
		nbr := make(map[int]bool)
		for _, i := range subset {
			for _, j := range g.adj[i] {
				nbr[j] = true
			}
		}
		if e := float64(len(nbr)) / float64(subsetSize); e < minExpansion {
			minExpansion = e
		}
	}
	return minExpansion, nil
}

// Bipartite converts the graph for use with the matching package (left =
// V₁, right = V₂).
func (g *Graph) Bipartite() *matching.Bipartite {
	b := matching.NewBipartite(len(g.oneCycles), len(g.twoCycles))
	for i, adj := range g.adj {
		for _, j := range adj {
			// Addition cannot fail: indices are in range by construction.
			if err := b.AddEdge(i, j); err != nil {
				panic(err)
			}
		}
	}
	return b
}

// StarPacking finds a k-matching saturating V₁ (Theorem 2.1's conclusion):
// each one-cycle instance receives k private two-cycle neighbours. ok
// reports whether the packing saturates V₁.
func (g *Graph) StarPacking(k int) (stars [][]int, ok bool, err error) {
	return g.Bipartite().KMatching(k)
}

// MaxStarSize returns the largest k for which a saturating k-star packing
// exists (the experimental value tracked against Θ(log n) in E06).
func (g *Graph) MaxStarSize() (int, error) {
	hi := 1
	if len(g.oneCycles) > 0 {
		hi = len(g.twoCycles)/len(g.oneCycles) + 1
	}
	return g.Bipartite().MaxSaturatingK(hi)
}

// ForcedError returns the error any transcript-measurable decision rule
// must incur under the hard distribution µ (mass 1/2 uniform on V₁, 1/2
// uniform on V₂), given a star packing: on each star the rule answers
// identically on the centre (a YES instance) and all its leaves (NO
// instances), so it loses at least min(µ(centre), µ(leaves)); stars are
// disjoint, so the losses add up.
func (g *Graph) ForcedError(stars [][]int) float64 {
	if len(g.oneCycles) == 0 || len(g.twoCycles) == 0 {
		return 0
	}
	muOne := 0.5 / float64(len(g.oneCycles))
	muTwo := 0.5 / float64(len(g.twoCycles))
	total := 0.0
	for _, leaves := range stars {
		loss := float64(len(leaves)) * muTwo
		if muOne < loss {
			loss = muOne
		}
		total += loss
	}
	return total
}

// OptimalRuleError returns the distributional error of the best possible
// decision rule whose answers depend only on post-round-t vertex states,
// under the hard distribution µ. Instances connected in G^t have
// identical state vectors (Lemma 3.4 chains along edges), so any rule is
// constant on each connected component and loses min(µ-mass of YES
// instances, µ-mass of NO instances) there. This is the exact quantity
// that Theorem 3.1's star packing lower-bounds.
func (g *Graph) OptimalRuleError() float64 {
	nOne, nTwo := len(g.oneCycles), len(g.twoCycles)
	if nOne == 0 || nTwo == 0 {
		return 0
	}
	d := dsu.New(nOne + nTwo)
	for i, adj := range g.adj {
		for _, j := range adj {
			d.Union(i, nOne+j)
		}
	}
	type mass struct{ one, two int }
	byRoot := make(map[int]*mass)
	for v := 0; v < nOne+nTwo; v++ {
		r := d.Find(v)
		m := byRoot[r]
		if m == nil {
			m = &mass{}
			byRoot[r] = m
		}
		if v < nOne {
			m.one++
		} else {
			m.two++
		}
	}
	muOne := 0.5 / float64(nOne)
	muTwo := 0.5 / float64(nTwo)
	total := 0.0
	for _, m := range byRoot {
		yes := float64(m.one) * muOne
		no := float64(m.two) * muTwo
		if yes < no {
			total += yes
		} else {
			total += no
		}
	}
	return total
}

// Census reports the exact Lemma 3.9 quantities for ground size n using
// closed-form counting (no enumeration): |V₁|, |V₂|, the ratio |V₂|/|V₁|,
// the paper's harmonic estimate Σ_{i=3}^{n/2} n/(i(n−i)), and the exact
// prediction Σ_{i=3}^{⌊n/2⌋} n/(2·i·(n−i)) (halved again at i = n/2),
// which follows from |T_i| = C(n,i)·(i−1)!/2·(n−i−1)!/2. Ratio and
// Predicted agree exactly; both are Θ(log n), which is the lemma's claim.
type Census struct {
	N         int
	NumOne    float64
	NumTwo    float64
	Ratio     float64
	Harmonic  float64
	Predicted float64
}

// NewCensus computes the census for ground size n.
func NewCensus(n int) Census {
	one, _ := new(big.Float).SetInt(graph.NumOneCycles(n)).Float64()
	two, _ := new(big.Float).SetInt(graph.NumTwoCycles(n)).Float64()
	c := Census{N: n, NumOne: one, NumTwo: two}
	if one > 0 {
		c.Ratio = two / one
	}
	for i := 3; i <= n/2; i++ {
		c.Harmonic += float64(n) / float64(i*(n-i))
		term := float64(n) / float64(2*i*(n-i))
		if 2*i == n {
			term /= 2
		}
		c.Predicted += term
	}
	return c
}
