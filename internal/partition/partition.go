// Package partition implements set partitions of [n] = {0, ..., n-1} and
// the lattice operations the paper's KT-1 lower bounds are built on
// (Section 4): the join P_A ∨ P_B, the refinement order, Bell numbers,
// enumeration of all partitions and of all perfect pairings (the inputs of
// the TwoPartition problem), and exact uniform sampling.
//
// Partitions are stored canonically as restricted growth strings: a label
// slice l with l[0] = 0 and l[i] ≤ max(l[0..i-1]) + 1, where l[i] is the
// index of the block containing element i and blocks are numbered in order
// of first appearance.
package partition

import (
	"fmt"
	"sort"
	"strings"

	"bcclique/internal/dsu"
)

// Partition is a set partition of {0, ..., n-1} in canonical restricted
// growth form. The zero value is the empty partition of the empty set.
type Partition struct {
	labels []int
}

// FromLabels builds a partition from an arbitrary block-label assignment
// (elements with equal labels share a block). The input need not be in
// canonical form.
func FromLabels(labels []int) Partition {
	canon := make([]int, len(labels))
	next := 0
	rename := make(map[int]int, len(labels))
	for i, l := range labels {
		c, ok := rename[l]
		if !ok {
			c = next
			rename[l] = c
			next++
		}
		canon[i] = c
	}
	return Partition{labels: canon}
}

// FromBlocks builds a partition of {0,...,n-1} from explicit blocks, which
// must be disjoint, non-empty, and cover the ground set.
func FromBlocks(n int, blocks [][]int) (Partition, error) {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	for b, block := range blocks {
		if len(block) == 0 {
			return Partition{}, fmt.Errorf("partition: empty block %d", b)
		}
		for _, e := range block {
			if e < 0 || e >= n {
				return Partition{}, fmt.Errorf("partition: element %d out of range [0,%d)", e, n)
			}
			if labels[e] != -1 {
				return Partition{}, fmt.Errorf("partition: element %d in two blocks", e)
			}
			labels[e] = b
		}
	}
	for e, l := range labels {
		if l == -1 {
			return Partition{}, fmt.Errorf("partition: element %d not covered", e)
		}
	}
	return FromLabels(labels), nil
}

// Finest returns the all-singletons partition (1)(2)...(n), the identity
// of the join operation (and Bob's fixed input in Theorem 4.5's hard
// distribution).
func Finest(n int) Partition {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	return Partition{labels: labels}
}

// Coarsest returns the one-block partition, the paper's trivial partition 1.
func Coarsest(n int) Partition {
	return Partition{labels: make([]int, n)}
}

// N returns the size of the ground set.
func (p Partition) N() int { return len(p.labels) }

// NumBlocks returns the number of blocks.
func (p Partition) NumBlocks() int {
	top := -1
	for _, l := range p.labels {
		if l > top {
			top = l
		}
	}
	return top + 1
}

// Label returns the canonical block index of element e.
func (p Partition) Label(e int) int { return p.labels[e] }

// Labels returns a copy of the canonical label slice.
func (p Partition) Labels() []int { return append([]int(nil), p.labels...) }

// Blocks returns the blocks in order of first appearance; each block lists
// its elements ascending.
func (p Partition) Blocks() [][]int {
	blocks := make([][]int, p.NumBlocks())
	for e, l := range p.labels {
		blocks[l] = append(blocks[l], e)
	}
	return blocks
}

// Same reports whether elements a and b share a block.
func (p Partition) Same(a, b int) bool { return p.labels[a] == p.labels[b] }

// Equal reports whether p and q are the same partition.
func (p Partition) Equal(q Partition) bool {
	if len(p.labels) != len(q.labels) {
		return false
	}
	for i := range p.labels {
		if p.labels[i] != q.labels[i] {
			return false
		}
	}
	return true
}

// Key returns a compact canonical string key.
func (p Partition) Key() string {
	var sb strings.Builder
	sb.Grow(2 * len(p.labels))
	for _, l := range p.labels {
		// Labels are < n ≤ a few hundred in practice; encode base-36
		// with separators only when multi-char.
		if l < 36 {
			sb.WriteByte(base36(l))
		} else {
			fmt.Fprintf(&sb, "{%d}", l)
		}
	}
	return sb.String()
}

func base36(x int) byte {
	if x < 10 {
		return byte('0' + x)
	}
	return byte('a' + x - 10)
}

// String renders the partition in the paper's block notation over the
// 0-based ground set, e.g. "(0,1)(2,3)(4)".
func (p Partition) String() string {
	var sb strings.Builder
	for _, block := range p.Blocks() {
		sb.WriteByte('(')
		for i, e := range block {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", e)
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// IsTrivial reports whether p is the one-block partition 1 — the YES
// condition of the 2-party Partition problem: output 1 iff P_A ∨ P_B = 1.
func (p Partition) IsTrivial() bool {
	for _, l := range p.labels {
		if l != 0 {
			return false
		}
	}
	return len(p.labels) > 0
}

// Join returns the join P ∨ Q: the finest partition refined by both P and
// Q. Computed by uniting, for each block of either input, all its elements
// in a DSU — exactly the transitive "reachability" closure used in the
// proof of Theorem 4.3.
func (p Partition) Join(q Partition) (Partition, error) {
	if p.N() != q.N() {
		return Partition{}, fmt.Errorf("partition: join of sizes %d and %d", p.N(), q.N())
	}
	d := dsu.New(p.N())
	first := make(map[int]int, p.NumBlocks())
	for e, l := range p.labels {
		if f, ok := first[l]; ok {
			d.Union(f, e)
		} else {
			first[l] = e
		}
	}
	firstQ := make(map[int]int, q.NumBlocks())
	for e, l := range q.labels {
		if f, ok := firstQ[l]; ok {
			d.Union(f, e)
		} else {
			firstQ[l] = e
		}
	}
	labels := make([]int, p.N())
	for e, l := range d.Least(nil) {
		labels[e] = int(l)
	}
	return FromLabels(labels), nil
}

// Meet returns the meet P ∧ Q: the coarsest common refinement (elements
// share a block iff they do in both P and Q).
func (p Partition) Meet(q Partition) (Partition, error) {
	if p.N() != q.N() {
		return Partition{}, fmt.Errorf("partition: meet of sizes %d and %d", p.N(), q.N())
	}
	type pair struct{ a, b int }
	labels := make([]int, p.N())
	index := make(map[pair]int, p.N())
	for e := range labels {
		k := pair{p.labels[e], q.labels[e]}
		l, ok := index[k]
		if !ok {
			l = len(index)
			index[k] = l
		}
		labels[e] = l
	}
	return FromLabels(labels), nil
}

// Refines reports whether p is a refinement of q: every block of p lies
// inside a block of q (footnote 2 of the paper).
func (p Partition) Refines(q Partition) bool {
	if p.N() != q.N() {
		return false
	}
	blockTo := make(map[int]int)
	for e, l := range p.labels {
		if ql, ok := blockTo[l]; ok {
			if ql != q.labels[e] {
				return false
			}
		} else {
			blockTo[l] = q.labels[e]
		}
	}
	return true
}

// IsPairing reports whether every block has exactly two elements — the
// promise of the TwoPartition problem (Section 4.1).
func (p Partition) IsPairing() bool {
	if p.N() == 0 || p.N()%2 != 0 {
		return false
	}
	counts := make([]int, p.NumBlocks())
	for _, l := range p.labels {
		counts[l]++
	}
	for _, c := range counts {
		if c != 2 {
			return false
		}
	}
	return true
}

// BlockSizes returns the sorted multiset of block sizes.
func (p Partition) BlockSizes() []int {
	counts := make([]int, p.NumBlocks())
	for _, l := range p.labels {
		counts[l]++
	}
	sort.Ints(counts)
	return counts
}
