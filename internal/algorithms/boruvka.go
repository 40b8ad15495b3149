package algorithms

import (
	"fmt"
	"sync"

	"bcclique/internal/bcc"
	"bcclique/internal/dsu"
)

// Boruvka is deterministic Borůvka-style component merging in
// BCC(3·IDBits+1): in each phase every vertex broadcasts its component
// label together with one incident edge leaving its component (if any);
// since broadcasts are global, every vertex replays the same merge
// computation locally, so component labels stay globally consistent.
// Components at least halve per phase, giving ⌈log₂ n⌉ + 1 phases of one
// round each — the classic O(log n) connectivity algorithm for arbitrary
// input graphs in the b = Θ(log n) regime discussed in Section 5
// (Question 1 contrasts it with the BCC(1) bounds).
//
// The replayed merge state is a deterministic function of the broadcast
// transcript, which every replica hears identically — so under the
// runner's RunBinder protocol the n per-replica union-find replicas
// collapse into one run-shared mirror (boruvkaRun): the run hears each
// round once and applies its merges, and every replica's Send reads the
// resulting label array. Per-replica residue shrinks to the vertex's
// own rank and its input-neighbour ranks. A bare NewNode (no BindRun)
// is a one-replica run that its node's own Receive advances — the form
// transcript verification and the two-party reductions rely on when
// they feed a single node forged broadcasts.
type Boruvka struct {
	// IDBits is the width used to encode IDs inside messages.
	IDBits int
}

// NewBoruvka returns the algorithm with the given ID width.
func NewBoruvka(idBits int) (*Boruvka, error) {
	if idBits < 1 || 3*idBits+1 > bcc.MaxBandwidth {
		return nil, fmt.Errorf("algorithms: id width %d needs bandwidth %d > %d", idBits, 3*idBits+1, bcc.MaxBandwidth)
	}
	return &Boruvka{IDBits: idBits}, nil
}

// Name implements bcc.Algorithm.
func (a *Boruvka) Name() string { return "boruvka" }

// Bandwidth implements bcc.Algorithm: label + edge endpoints + validity
// flag.
func (a *Boruvka) Bandwidth() int { return 3*a.IDBits + 1 }

// Rounds implements bcc.Algorithm: components at least halve per phase.
func (a *Boruvka) Rounds(n int) int { return bitsFor(n) + 1 }

// boruvkaRunPool recycles the run-shared mirrors (and their node/label
// arenas) across the thousands of runs of a sweep grid.
var boruvkaRunPool = sync.Pool{New: func() interface{} { return new(boruvkaRun) }}

// BindRun implements bcc.RunBinder: one shared merge mirror per run.
func (a *Boruvka) BindRun(in *bcc.Instance, _ int) bcc.BoundRun {
	r := boruvkaRunPool.Get().(*boruvkaRun)
	r.Boruvka = a
	r.labelDirty = false
	r.nextNode = 0
	if cap(r.nodes) < in.N() {
		r.nodes = make([]boruvkaNode, in.N())
	}
	r.nodes = r.nodes[:in.N()]
	r.nbrs = r.nbrs[:0]
	if ids := in.SortedIDs(); ids != nil {
		nn := len(ids)
		r.ix = newIndexer(ids)
		r.comp.Reset(nn)
		r.labels = r.comp.Least(r.labels) // singletons label themselves
		if want := 2 * in.Input().M(); cap(r.nbrs) < want {
			r.nbrs = make([]int32, 0, want)
		}
	} else {
		r.ix = nil
	}
	return r
}

// boruvkaRun is the run-shared substrate plus broadcast mirror: the
// frozen ID indexer and one union-find replica standing in for all n.
// labels[v] is the rank of the smallest member of v's component, kept
// current eagerly at the end of every apply, so Send reads labels and
// never touches the union-find. A bare NewNode builds a one-replica
// run.
type boruvkaRun struct {
	*Boruvka
	ix         *indexer
	comp       dsu.DSU
	labels     []int32
	labelDirty bool
	nodes      []boruvkaNode // residue arena handed out by NewNode
	nextNode   int
	nbrs       []int32 // neighbour-rank arena backing every node's residue
}

// NewNode implements bcc.Algorithm on the bound run and on a bare
// node's one-replica run: nodes come out of the run's arena.
func (r *boruvkaRun) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	node := &r.nodes[r.nextNode]
	r.nextNode++
	*node = boruvkaNode{run: r}
	if r.ix == nil || view.Knowledge != bcc.KT1 || view.AllIDs == nil || view.ID >= 1<<uint(r.IDBits) {
		node.broken = true
		return node
	}
	node.self = int32(r.ix.rank(view.ID))
	start := len(r.nbrs)
	for _, p := range view.InputPorts {
		r.nbrs = append(r.nbrs, int32(r.ix.rank(view.PortID(p))))
	}
	node.neighbours = r.nbrs[start:len(r.nbrs):len(r.nbrs)]
	return node
}

// ReleaseRun implements bcc.BoundRun.
func (r *boruvkaRun) ReleaseRun() {
	r.Boruvka = nil
	r.ix = nil
	boruvkaRunPool.Put(r)
}

// NewNode implements bcc.Algorithm on the bare (unbound) algorithm: a
// one-replica run per node, for callers that drive nodes by hand
// (transcript verification feeds a single node possibly-forged
// broadcasts; the two-party reductions run their own round loop over
// bare nodes).
func (a *Boruvka) NewNode(view bcc.View, coin *bcc.Coin) bcc.Node {
	bare := &struct {
		run  boruvkaRun
		node [1]boruvkaNode
	}{}
	r := &bare.run
	r.Boruvka = a
	r.nodes = bare.node[:]
	if view.Knowledge == bcc.KT1 && view.AllIDs != nil {
		nn := len(view.AllIDs)
		r.ix = newIndexer(view.AllIDs)
		r.comp.Reset(nn)
		r.labels = r.comp.Least(nil)
	}
	return r.NewNode(view, coin)
}

// Hear implements bcc.BoundRun: the vertex-indexed broadcast vector
// includes every vertex's own entry, so the run replays it verbatim.
func (r *boruvkaRun) Hear(_ int, sends []bcc.Message) {
	for _, m := range sends {
		r.apply(m.Bits)
	}
	r.endApply()
}

// apply replays one announced outgoing edge into the shared mirror.
func (r *boruvkaRun) apply(bits uint64) {
	w := uint(r.IDBits)
	if bits>>(3*w)&1 == 0 {
		return
	}
	mask := uint64(1)<<w - 1
	from := r.ix.rank(int(bits >> w & mask))
	to := r.ix.rank(int(bits >> (2 * w) & mask))
	if from >= 0 && to >= 0 && r.comp.Union(from, to) {
		r.labelDirty = true
	}
}

// endApply refreshes labels if any merge landed, so the next Send phase
// (and the final Label pass) reads current labels without consulting
// the union-find: one O(n·α) pass instead of an O(n) scan per label
// query.
func (r *boruvkaRun) endApply() {
	if r.labelDirty {
		r.labelDirty = false
		r.labels = r.comp.Least(r.labels)
	}
}

// boruvkaNode is the per-replica residue: the vertex's own rank, its
// input-neighbour ranks, and its last broadcast. Everything else lives
// in the shared run.
type boruvkaNode struct {
	run        *boruvkaRun
	neighbours []int32 // input-graph neighbours (sorted-index space)
	self       int32
	lastSent   uint64
	broken     bool
}

func (n *boruvkaNode) Send(int) bcc.Message {
	if n.broken {
		return bcc.Silence
	}
	r := n.run
	myLabel := r.labels[n.self]
	// Pick the incident edge to the smallest-labelled foreign component.
	out := int32(-1)
	for _, u := range n.neighbours {
		if r.labels[u] == myLabel {
			continue
		}
		if out == -1 || r.labels[u] < r.labels[out] {
			out = u
		}
	}
	w := uint(r.IDBits)
	bits := uint64(r.ix.id(int(myLabel)))
	if out >= 0 {
		bits |= 1 << (3 * w) // validity flag
		bits |= uint64(r.ix.id(int(n.self))) << w
		bits |= uint64(r.ix.id(int(out))) << (2 * w)
	}
	n.lastSent = bits
	return bcc.Word(bits, 3*r.IDBits+1)
}

// Receive implements bcc.Node for a bare node, whose one-replica run
// replays the inbox; a bound run's nodes hear nothing (the run hears
// for them).
func (n *boruvkaNode) Receive(_ int, inbox []bcc.Message) {
	if n.broken {
		return
	}
	// Replay the global merge: every announced outgoing edge is merged.
	// The inbox omits this replica's own broadcast, so it replays its
	// lastSent alongside. Union order differs from the bound run's
	// vertex order, but the merged edge set — hence the partition, the
	// labels, and the verdict — is identical.
	n.run.apply(n.lastSent)
	for _, m := range inbox {
		n.run.apply(m.Bits)
	}
	n.run.endApply()
}

// Decide implements bcc.Decider.
func (n *boruvkaNode) Decide() bcc.Verdict {
	if n.broken {
		return bcc.VerdictNo
	}
	if n.run.comp.Sets() == 1 {
		return bcc.VerdictYes
	}
	return bcc.VerdictNo
}

// Label implements bcc.Labeler. Labels are refreshed eagerly at the end
// of every apply, so the final round's merges are already reflected.
func (n *boruvkaNode) Label() int {
	if n.broken {
		return -1
	}
	r := n.run
	return r.ix.id(int(r.labels[n.self]))
}

var (
	_ bcc.Algorithm = (*Boruvka)(nil)
	_ bcc.RunBinder = (*Boruvka)(nil)
	_ bcc.BoundRun  = (*boruvkaRun)(nil)
	_ bcc.Decider   = (*boruvkaNode)(nil)
	_ bcc.Labeler   = (*boruvkaNode)(nil)
)
