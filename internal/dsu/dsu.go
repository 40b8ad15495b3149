// Package dsu implements a disjoint-set union (union-find) structure with
// union by size and path halving, packed into one int32 array.
//
// It is the shared substrate for connected-component labelling in the graph
// package, for computing joins of set partitions (the lattice operation
// P_A ∨ P_B at the heart of the paper's KT-1 reductions), for the family
// package's arboricity check, and for the component outputs of the
// algorithm library's connectivity protocols, the Borůvka-style merge and
// the sketch among them.
package dsu

// DSU is a disjoint-set union over the elements 0..n-1, packed into a
// single int32 array: parent[x] ≥ 0 is a parent pointer, parent[x] < 0
// marks a root whose set has −parent[x] elements. Union by size plus
// path halving keeps operations effectively constant at 4 bytes per
// element. The zero value is an empty structure; Reset sizes it, so it
// can be embedded by value and reused.
type DSU struct {
	parent []int32
	sets   int
}

// New returns a DSU with n singleton sets {0}, {1}, ..., {n-1}. n must
// fit in an int32 (the simulator's instance sizes are far below that).
func New(n int) *DSU {
	d := new(DSU)
	d.Reset(n)
	return d
}

// Len returns the number of elements in the universe.
func (d *DSU) Len() int { return len(d.parent) }

// Sets returns the current number of disjoint sets.
func (d *DSU) Sets() int { return d.sets }

// Find returns the canonical representative of x's set, halving the
// path as it walks.
func (d *DSU) Find(x int) int {
	for d.parent[x] >= 0 {
		p := d.parent[x]
		if d.parent[p] >= 0 {
			d.parent[x] = d.parent[p]
		}
		x = int(p)
	}
	return x
}

// Union merges the sets containing x and y and reports whether a merge
// happened (false if they were already joined).
func (d *DSU) Union(x, y int) bool {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return false
	}
	// parent values at roots are negated sizes: the more negative root
	// is the larger set and absorbs the other.
	if d.parent[rx] > d.parent[ry] {
		rx, ry = ry, rx
	}
	d.parent[rx] += d.parent[ry]
	d.parent[ry] = int32(rx)
	d.sets--
	return true
}

// Same reports whether x and y are in the same set.
func (d *DSU) Same(x, y int) bool { return d.Find(x) == d.Find(y) }

// Least writes into dst the smallest member of each element's set
// (dst[x] = min of x's set) and returns it, reusing dst when its
// capacity suffices. The smallest member does not depend on the order
// of the unions, so the labels are canonical.
func (d *DSU) Least(dst []int32) []int32 {
	n := len(d.parent)
	if cap(dst) < n {
		dst = make([]int32, n)
	}
	dst = dst[:n]
	for x := range dst {
		dst[x] = -1
	}
	// Ascending x: the first member to reach a root is its set's minimum.
	for x := 0; x < n; x++ {
		if r := d.Find(x); dst[r] == -1 {
			dst[r] = int32(x)
		}
	}
	for x := 0; x < n; x++ {
		dst[x] = dst[d.Find(x)]
	}
	return dst
}

// Reset reinitializes the structure to n singleton sets, reusing the
// parent array when it is large enough, so a pooled run keeps one DSU
// across runs.
func (d *DSU) Reset(n int) {
	if cap(d.parent) < n {
		d.parent = make([]int32, n)
	}
	d.parent = d.parent[:n]
	for i := range d.parent {
		d.parent[i] = -1
	}
	d.sets = n
}

// CopyFrom makes d an independent copy of src (same partition, same
// internal paths), reusing d's parent array when possible. Truncated
// bit-plane runs use it to refine a shared partition with per-replica
// edges without mutating the shared copy.
func (d *DSU) CopyFrom(src *DSU) {
	n := len(src.parent)
	if cap(d.parent) < n {
		d.parent = make([]int32, n)
	}
	d.parent = d.parent[:n]
	copy(d.parent, src.parent)
	d.sets = src.sets
}
