// Package graph provides the undirected-graph substrate used throughout the
// reproduction: input graphs of BCC instances, cycle covers (the one-cycle
// and two-cycle instances of the paper's KT-0 lower bound, Section 3), the
// reduction graphs G(P_A, P_B) of Section 4, connected-component labelling,
// and exhaustive enumeration of the instance families that the
// indistinguishability-graph experiments quantify over.
package graph

import (
	"fmt"
	"sort"
	"strings"

	"bcclique/internal/dsu"
)

// Graph is a simple undirected graph on vertices 0..n-1 with sorted
// adjacency lists. The zero value is an empty graph on zero vertices.
//
// A graph has two storage modes. Graphs built through New/AddEdge own
// one slice per vertex and mutate freely. Graphs built through
// Builder.Freeze are frozen: every adjacency row aliases one shared
// CSR arena, which makes construction one sort instead of Θ(m·d)
// shifting and keeps neighbour iteration allocation-free and cache
// dense. Mutating a frozen graph (AddEdge/RemoveEdge) transparently
// thaws it first — each row is copied out of the arena — so the two
// modes expose one identical API.
//
//bccvet:frozen
type Graph struct {
	n      int
	m      int
	adj    [][]int
	frozen bool // rows alias a shared CSR arena; thaw before mutating
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge {u, v}. It returns an error if the
// edge is a self loop, out of range, or already present. The duplicate
// check shares the binary search that locates the insertion point, so
// each endpoint's row is searched exactly once.
//
//bccvet:thaws Graph
func (g *Graph) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self loop at %d", u)
	}
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	i := sort.SearchInts(g.adj[u], v)
	if i < len(g.adj[u]) && g.adj[u][i] == v {
		return fmt.Errorf("graph: edge {%d,%d} already present", u, v)
	}
	g.thaw()
	g.adj[u] = insertAt(g.adj[u], i, v)
	g.adj[v] = insertAt(g.adj[v], sort.SearchInts(g.adj[v], u), u)
	g.m++
	return nil
}

// MustAddEdge is AddEdge for static construction in tests and generators;
// it panics on error.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the undirected edge {u, v}.
// It returns an error if the edge is not present.
//
//bccvet:thaws Graph
func (g *Graph) RemoveEdge(u, v int) error {
	if !g.HasEdge(u, v) {
		return fmt.Errorf("graph: edge {%d,%d} not present", u, v)
	}
	g.thaw()
	g.adj[u] = removeSorted(g.adj[u], v)
	g.adj[v] = removeSorted(g.adj[v], u)
	g.m--
	return nil
}

// thaw copies every adjacency row out of a frozen graph's shared arena
// so rows can grow and shrink independently. A no-op on mutable graphs.
//
//bccvet:thaws Graph
func (g *Graph) thaw() {
	if !g.frozen {
		return
	}
	for v, row := range g.adj {
		g.adj[v] = append([]int(nil), row...)
	}
	g.frozen = false
}

// Frozen reports whether the graph is CSR-backed (built by
// Builder.Freeze and not mutated since).
func (g *Graph) Frozen() bool { return g.frozen }

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns a copy of v's sorted neighbour list. Hot paths
// should prefer NeighborSlice or ForNeighbors, which do not allocate.
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, len(g.adj[v]))
	copy(out, g.adj[v])
	return out
}

// NeighborSlice returns v's sorted neighbour list without copying. The
// slice aliases the graph's internal storage: callers must treat it as
// read-only and must not retain it across mutations of the graph.
func (g *Graph) NeighborSlice(v int) []int { return g.adj[v] }

// ForNeighbors calls fn for every neighbour of v in ascending order,
// without allocating.
func (g *Graph) ForNeighbors(v int, fn func(u int)) {
	for _, u := range g.adj[v] {
		fn(u)
	}
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V int
}

// NormEdge returns the normalized (U < V) edge {u, v}.
func NormEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Edges returns all edges with U < V, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				edges = append(edges, Edge{U: u, V: v})
			}
		}
	}
	return edges
}

// Clone returns a deep copy of the graph. Cloning a frozen graph copies
// the shared arena in one allocation and the clone stays frozen.
//
//bccvet:thaws Graph
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, m: g.m, adj: make([][]int, g.n), frozen: g.frozen}
	if g.frozen {
		arena := make([]int, 0, 2*g.m)
		for _, a := range g.adj {
			arena = append(arena, a...)
		}
		off := 0
		for v, a := range g.adj {
			c.adj[v] = arena[off : off+len(a) : off+len(a)]
			off += len(a)
		}
		return c
	}
	for v, a := range g.adj {
		c.adj[v] = append([]int(nil), a...)
	}
	return c
}

// Equal reports whether g and h have the same vertex count and edge set.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.m != h.m {
		return false
	}
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) != len(h.adj[v]) {
			return false
		}
		for i := range g.adj[v] {
			if g.adj[v][i] != h.adj[v][i] {
				return false
			}
		}
	}
	return true
}

// MaxPackedKeyN is the largest vertex count whose edge set fits a
// PackedKey: C(11,2) = 55 possible edges, one bit each.
const MaxPackedKeyN = 11

// PackedKey returns the canonical edge set as a single-word bitmask —
// the allocation-free counterpart of Key for the enumeration hot paths
// that deduplicate millions of small instances. Bit e is set when edge
// number e (in the U < V lexicographic order, e = U·n − U(U+3)/2 + V − 1)
// is present. ok is false when n exceeds MaxPackedKeyN; callers fall back
// to Key.
func (g *Graph) PackedKey() (key uint64, ok bool) {
	if g.n > MaxPackedKeyN {
		return 0, false
	}
	for u := 0; u < g.n; u++ {
		base := u*g.n - u*(u+3)/2 - 1
		for _, v := range g.adj[u] {
			if u < v {
				key |= 1 << uint(base+v)
			}
		}
	}
	return key, true
}

// EdgeBit returns the PackedKey bit of edge {u, v} on n vertices, so
// callers can derive the key of an edge-modified graph by XOR instead of
// cloning (crossings flip exactly four bits). ok is false when the edge
// or n is out of packed range.
func EdgeBit(n, u, v int) (bit uint64, ok bool) {
	if n > MaxPackedKeyN || u == v || u < 0 || v < 0 || u >= n || v >= n {
		return 0, false
	}
	if u > v {
		u, v = v, u
	}
	return 1 << uint(u*n-u*(u+3)/2+v-1), true
}

// Key returns a canonical string key for the edge set, suitable for use as
// a map key when deduplicating instances (e.g. vertices of the
// indistinguishability graph).
func (g *Graph) Key() string {
	var sb strings.Builder
	sb.Grow(g.m * 6)
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "%d-%d;", e.U, e.V)
	}
	return sb.String()
}

// Components returns a DSU whose sets are the connected components.
func (g *Graph) Components() *dsu.DSU {
	d := dsu.New(g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				d.Union(u, v)
			}
		}
	}
	return d
}

// ComponentLabels returns l with l[v] = minimum vertex in v's component.
func (g *Graph) ComponentLabels() []int {
	least := g.Components().Least(nil)
	labels := make([]int, len(least))
	for v, l := range least {
		labels[v] = int(l)
	}
	return labels
}

// NumComponents returns the number of connected components.
func (g *Graph) NumComponents() int { return g.Components().Sets() }

// IsConnected reports whether the graph is connected.
// The empty graph on zero vertices is considered connected.
func (g *Graph) IsConnected() bool { return g.n == 0 || g.NumComponents() == 1 }

// bfsLabels is an independent implementation of component labelling used to
// cross-check the DSU-based one in tests.
func (g *Graph) bfsLabels() []int {
	labels := make([]int, g.n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int
	for s := 0; s < g.n; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = s
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[u] {
				if labels[v] == -1 {
					labels[v] = s
					queue = append(queue, v)
				}
			}
		}
	}
	return labels
}

// IsTwoRegular reports whether every vertex has degree exactly two, i.e.
// the graph is a disjoint union of cycles covering all vertices. These are
// precisely the input graphs of the paper's TwoCycle and MultiCycle
// problems.
func (g *Graph) IsTwoRegular() bool {
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) != 2 {
			return false
		}
	}
	return g.n >= 3
}

// CycleDecomposition decomposes a 2-regular graph into its cycles, each
// listed as a vertex sequence starting at the cycle's minimum vertex and
// proceeding toward that vertex's smaller neighbour. Cycles are ordered by
// their minimum vertex. ok is false if the graph is not 2-regular.
func (g *Graph) CycleDecomposition() (cycles [][]int, ok bool) {
	if !g.IsTwoRegular() {
		return nil, false
	}
	seen := make([]bool, g.n)
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		cycle := []int{s}
		seen[s] = true
		prev, cur := s, g.adj[s][0]
		for cur != s {
			cycle = append(cycle, cur)
			seen[cur] = true
			next := g.adj[cur][0]
			if next == prev {
				next = g.adj[cur][1]
			}
			prev, cur = cur, next
		}
		cycles = append(cycles, cycle)
	}
	return cycles, true
}

// CycleLengths returns the sorted lengths of the cycles of a 2-regular
// graph. ok is false if the graph is not 2-regular.
func (g *Graph) CycleLengths() (lengths []int, ok bool) {
	cycles, ok := g.CycleDecomposition()
	if !ok {
		return nil, false
	}
	lengths = make([]int, len(cycles))
	for i, c := range cycles {
		lengths[i] = len(c)
	}
	sort.Ints(lengths)
	return lengths, true
}

// FromCycle builds the cycle graph visiting seq in order. The sequence must
// list at least three distinct vertices in range. The result is frozen
// (CSR-backed).
func FromCycle(n int, seq []int) (*Graph, error) {
	if len(seq) < 3 {
		return nil, fmt.Errorf("graph: cycle of length %d < 3", len(seq))
	}
	b := NewBuilder(n)
	for i := range seq {
		if err := b.Add(seq[i], seq[(i+1)%len(seq)]); err != nil {
			return nil, fmt.Errorf("cycle %v: %w", seq, err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		return nil, fmt.Errorf("cycle %v: %w", seq, err)
	}
	return g, nil
}

// FromCycles builds the disjoint union of the given cycles on n vertices.
// The result is frozen (CSR-backed).
func FromCycles(n int, seqs ...[]int) (*Graph, error) {
	b := NewBuilder(n)
	for _, seq := range seqs {
		if len(seq) < 3 {
			return nil, fmt.Errorf("graph: cycle of length %d < 3", len(seq))
		}
		for i := range seq {
			if err := b.Add(seq[i], seq[(i+1)%len(seq)]); err != nil {
				return nil, fmt.Errorf("cycles %v: %w", seqs, err)
			}
		}
	}
	g, err := b.Freeze()
	if err != nil {
		return nil, fmt.Errorf("cycles %v: %w", seqs, err)
	}
	return g, nil
}

// insertAt inserts x at index i of a (which the caller located with a
// binary search, typically shared with the duplicate check).
func insertAt(a []int, i, x int) []int {
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = x
	return a
}

func removeSorted(a []int, x int) []int {
	i := sort.SearchInts(a, x)
	return append(a[:i], a[i+1:]...)
}
