// Package algorithms is the BCC(b) algorithm library accompanying the
// lower bounds:
//
//   - NeighborhoodBroadcast — deterministic KT-1 BCC(1) connectivity (and
//     ConnectedComponents) for degree-≤d graphs in d·⌈log₂ n⌉ rounds.
//     For the paper's 2-regular instances this is 2⌈log₂ n⌉ = O(log n),
//     matching the Ω(log n) lower bounds and realizing the Section 1.1
//     tightness remark for uniformly sparse graphs.
//   - KT0Exchange — the same guarantee in KT-0 at the cost of one extra
//     ID-announcement phase (the paper's observation that KT-0 and KT-1
//     coincide once b·rounds ≥ log n).
//   - Flood — the naive KT-1 BCC(b) baseline: every vertex ships its full
//     adjacency row, Θ(n/b) rounds.
//   - Boruvka — deterministic component merging in BCC(Θ(log n)),
//     O(log n) rounds on arbitrary input graphs.
//   - Probe algorithms (Silent, CoinCast, InputParity) — wiring-
//     insensitive KT-0 algorithms whose broadcast labels drive the
//     indistinguishability-graph experiments of Section 3.
package algorithms

import (
	"sort"

	"bcclique/internal/bcc"
	"bcclique/internal/dsu"
)

// indexer maps IDs to their rank in the sorted ID list (the canonical
// vertex indexing every KT-1 algorithm shares).
//
//bccvet:frozen
type indexer struct {
	sorted   []int
	identity bool // sorted[i] == i: rank and id are the identity map
}

//bccvet:thaws indexer
func newIndexer(allIDs []int) *indexer {
	if sort.IntsAreSorted(allIDs) {
		// Already sorted — alias instead of copying. View.AllIDs is the
		// instance's shared pre-sorted ID list, so at large n this saves
		// an O(n) copy per node, O(n²) across the population. The
		// indexer never mutates its slice.
		ix := &indexer{sorted: allIDs, identity: true}
		for i, id := range allIDs {
			if id != i {
				ix.identity = false
				break
			}
		}
		return ix
	}
	s := append([]int(nil), allIDs...)
	sort.Ints(s)
	return &indexer{sorted: s}
}

func (ix *indexer) n() int { return len(ix.sorted) }

// rank returns the index of id (-1 if absent). Sequential IDs (the
// usual experiment assignment) take the O(1) identity path — rank sits
// on the per-message decode loop of the merge algorithms, where the
// binary search is measurable at large n.
func (ix *indexer) rank(id int) int {
	if ix.identity {
		if id < 0 || id >= len(ix.sorted) {
			return -1
		}
		return id
	}
	i := sort.SearchInts(ix.sorted, id)
	if i < len(ix.sorted) && ix.sorted[i] == id {
		return i
	}
	return -1
}

func (ix *indexer) id(rank int) int { return ix.sorted[rank] }

// portRanks fills the row ranks of a bare node's one-replica run: the
// rank of the vertex behind each port of view, in port order, and then
// the view's own.
func portRanks(ranks []int32, ix *indexer, view bcc.View) {
	for p := 0; p < view.NumPorts; p++ {
		ranks[p] = int32(ix.rank(view.PortID(p)))
	}
	ranks[view.NumPorts] = int32(ix.rank(view.ID))
}

// componentOutputs are a vertex's decision and labelling outputs in
// every full-reconstruction algorithm: the verdict is YES iff the
// claimed graph is connected; the label of a vertex is the smallest ID
// in its component.
type componentOutputs struct {
	verdict bcc.Verdict
	label   int
}

// partition is the claimed graph of a full-reconstruction algorithm,
// kept as its components: a union-find over sorted-ID ranks. claim
// enters one neighbour claim, seal labels every rank with its
// component's smallest rank, and outputs answers for one rank.
type partition struct {
	comp  dsu.DSU
	least []int32 // rank → smallest rank in its component, once sealed
}

// reset empties the partition over n ranks.
func (p *partition) reset(n int) { p.comp.Reset(n) }

// claim enters rank v's claim that rank u is its neighbour, ignoring
// self-claims (the "no neighbour" filler) and ranks outside the
// universe.
func (p *partition) claim(v, u int) {
	if u != v && u >= 0 && u < p.comp.Len() {
		p.comp.Union(v, u)
	}
}

// seal labels every rank with the smallest rank in its component;
// ascending rank order is ascending ID order, so that rank carries the
// component's smallest ID.
func (p *partition) seal() { p.least = p.comp.Least(p.least) }

// outputs answers for the vertex at rank self of ix from the sealed
// partition.
func (p *partition) outputs(ix *indexer, self int) componentOutputs {
	verdict := bcc.VerdictNo
	if p.comp.Sets() == 1 {
		verdict = bcc.VerdictYes
	}
	return componentOutputs{verdict: verdict, label: ix.id(int(p.least[self]))}
}
