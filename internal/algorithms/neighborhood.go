package algorithms

import (
	"fmt"
	"math/bits"
	"sync"

	"bcclique/internal/bcc"
)

// NeighborhoodBroadcast is the deterministic KT-1 BCC(1) algorithm that
// makes the paper's lower bounds tight on uniformly sparse graphs: every
// vertex announces the identities of its input-graph neighbours, bit by
// bit, padding unused neighbour slots with its own index. After
// MaxDegree·⌈log₂ n⌉ rounds every vertex has reconstructed the entire
// input graph and solves Connectivity, TwoCycle, MultiCycle and
// ConnectedComponents locally. For 2-regular inputs this is 2⌈log₂ n⌉
// rounds — an O(log n) upper bound against the Ω(log n) lower bounds of
// Theorems 4.4 and 4.5.
//
// A vertex's announcement is a stream of MaxDegree slots of ⌈log₂ n⌉
// bits, kept in streamWords words as kt0-exchange keeps its phase-2
// streams, so slots past bit 64 decode whole. Every replica decodes
// the same n streams, so under the runner's RunBinder protocol the run
// hears each round once into one vertex-indexed stream table and, after
// the last round, unions every complete slot into one shared partition
// — own streams included, since every vertex's own slots re-arrive
// through its own broadcast. On a complete schedule that partition is
// every non-broken replica's, so verdict and labels are read per
// replica in O(1); a truncated run refines a scratch copy with each
// replica's own slots, as flood's run does. On the bit plane the run
// also writes each round's words itself (SendBits), in one pass over
// its node arena: every live vertex's bit comes from the rank in the
// round's slot. A bare NewNode, driven by hand through Send and
// Receive, is a one-replica run whose rows are the node's ports and
// its own stream, and the nodes' Send is the reference SendBits is
// tested against.
type NeighborhoodBroadcast struct {
	// MaxDegree is the degree bound the schedule is provisioned for.
	MaxDegree int
}

// NewNeighborhoodBroadcast returns the algorithm for inputs of maximum
// degree maxDegree.
func NewNeighborhoodBroadcast(maxDegree int) (*NeighborhoodBroadcast, error) {
	if maxDegree < 1 {
		return nil, fmt.Errorf("algorithms: max degree %d < 1", maxDegree)
	}
	return &NeighborhoodBroadcast{MaxDegree: maxDegree}, nil
}

// Name implements bcc.Algorithm.
func (a *NeighborhoodBroadcast) Name() string { return "neighborhood-broadcast" }

// Bandwidth implements bcc.Algorithm: this is a BCC(1) algorithm.
func (a *NeighborhoodBroadcast) Bandwidth() int { return 1 }

// Rounds implements bcc.Algorithm: MaxDegree slots of ⌈log₂ n⌉ bits.
func (a *NeighborhoodBroadcast) Rounds(n int) int { return a.MaxDegree * bitsFor(n) }

// nbRunPool recycles the run-shared stream table, partitions and arenas.
var nbRunPool = sync.Pool{New: func() interface{} { return new(nbRun) }}

// BindRun implements bcc.RunBinder: one shared stream table per run.
func (a *NeighborhoodBroadcast) BindRun(in *bcc.Instance, _ int) bcc.BoundRun {
	r := nbRunPool.Get().(*nbRun)
	n := in.N()
	r.NeighborhoodBroadcast = a
	r.in = in
	r.rounds = 0
	r.finished = false
	r.nextNode = 0
	r.idxBits = bitsFor(n)
	r.words = streamWords(a.MaxDegree, r.idxBits)
	if cap(r.stream) < n*r.words {
		r.stream = make([]uint64, n*r.words)
	}
	r.stream = r.stream[:n*r.words]
	clear(r.stream)
	if cap(r.nodes) < n {
		r.nodes = make([]nbNode, n)
	}
	r.nodes = r.nodes[:n]
	r.ix = nil
	if ids := in.SortedIDs(); ids != nil {
		r.ix = newIndexer(ids)
		if cap(r.vertexRank) < n {
			r.vertexRank = make([]int32, n)
		}
		r.vertexRank = r.vertexRank[:n]
		for u := range r.vertexRank {
			r.vertexRank[u] = int32(r.ix.rank(in.ID(u)))
		}
		if cap(r.slotArena) < n*a.MaxDegree {
			r.slotArena = make([]int32, n*a.MaxDegree)
		}
		r.slotArena = r.slotArena[:n*a.MaxDegree]
	}
	return r
}

// nbRun is the run-shared substrate: the frozen ID indexer, the
// vertex→rank table, every vertex's announced stream as the run heard
// it, and the partition decoded from them after the last round. The
// slot arena backs every replica's own slots.
type nbRun struct {
	*NeighborhoodBroadcast
	in         *bcc.Instance
	ix         *indexer // nil when the instance is not KT-1: every node is broken
	idxBits    int
	words      int      // length of one stream
	stream     []uint64 // n streams, vertex-major
	rounds     int      // last heard round = the run's actual length
	vertexRank []int32
	nodes      []nbNode
	nextNode   int
	slotArena  []int32
	// full reports whether every slot was heard (then part is every
	// replica's partition, sealed once); scratch serves the truncated
	// per-replica refinement.
	finished bool
	full     bool
	part     partition
	scratch  partition
}

// NewNode implements bcc.Algorithm on the bound run. Nodes come out of
// the run's arena in vertex order; a node's residue is its rank and own
// slots.
func (r *nbRun) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	v := r.nextNode
	r.nextNode++
	return r.newNode(v, v, view, func(p int) int { return r.in.NeighborAt(v, p) })
}

// newNode builds the i-th node of the arena, the replica whose own row
// is row: its rank, and its slots, the ranks of the rows behind its
// input ports (rowOf) padded with its own.
func (r *nbRun) newNode(i, row int, view bcc.View, rowOf func(p int) int) *nbNode {
	node := &r.nodes[i]
	*node = nbNode{run: r}
	if r.ix == nil || len(view.InputPorts) > r.MaxDegree {
		node.broken = true
		return node
	}
	m := r.MaxDegree
	node.self = r.vertexRank[row]
	node.slots = r.slotArena[i*m : (i+1)*m : (i+1)*m]
	for s := range node.slots {
		node.slots[s] = node.self
	}
	for s, p := range view.InputPorts {
		node.slots[s] = r.vertexRank[rowOf(p)]
	}
	return node
}

// ReleaseRun implements bcc.BoundRun.
func (r *nbRun) ReleaseRun() {
	r.NeighborhoodBroadcast = nil
	r.in = nil
	r.ix = nil
	nbRunPool.Put(r)
}

// streamOf returns vertex u's stream in the table.
func (r *nbRun) streamOf(u int) []uint64 { return r.stream[u*r.words : (u+1)*r.words] }

// Hear implements bcc.BoundRun: the broadcast vector is vertex-indexed
// with every vertex's own entry present, which is the table's layout.
// Only set bits matter; zeros and silence leave the stream as it is.
func (r *nbRun) Hear(round int, sends []bcc.Message) {
	r.rounds = round
	for u, m := range sends {
		if m.BitAt(0) != 0 {
			recordBit(r.streamOf(u), round-1)
		}
	}
}

// HearBits implements bcc.BitRun: every set value bit, each vertex's
// own included, is one stream bit.
func (r *nbRun) HearBits(round int, value, _ []uint64) {
	r.rounds = round
	for wi, w := range value {
		for w != 0 {
			u := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			recordBit(r.streamOf(u), round-1)
		}
	}
}

// BindPlane implements bcc.BitRun: the run accepts every wiring.
// SendBits, HearBits and finish all index vertices and map them to
// ranks through vertexRank, so a non-canonical KT-1 wiring needs no
// port table.
func (*nbRun) BindPlane(bool) bool { return true }

// SendBits implements bcc.BitRun with the nodes' schedule: in round t
// every live vertex sends bit (t−1) mod ⌈log₂ n⌉ of its slot
// (t−1) div ⌈log₂ n⌉. Broken vertices, and every vertex past the last
// slot, stay silent.
func (r *nbRun) SendBits(t int, value, spoke []uint64) {
	if r.ix == nil {
		return // not KT-1: every node is broken
	}
	slot, bit := (t-1)/r.idxBits, uint((t-1)%r.idxBits)
	if slot >= r.MaxDegree {
		return
	}
	for v := range r.nodes {
		if n := &r.nodes[v]; !n.broken {
			spoke[v>>6] |= 1 << uint(v&63)
			value[v>>6] |= uint64(n.slots[slot]) >> bit & 1 << uint(v&63)
		}
	}
}

// finish unions every complete slot of every stream into the shared
// partition, once, and seals it when the schedule ran to completion.
// Only non-broken nodes call it, and those exist only on a KT-1
// instance. Callers are sequential (the runner's output epilogue).
func (r *nbRun) finish() {
	if r.finished {
		return
	}
	r.finished = true
	slots := min(r.rounds/r.idxBits, r.MaxDegree)
	r.part.reset(r.ix.n())
	for u, v := range r.vertexRank {
		for s := 0; s < slots; s++ {
			r.part.claim(int(v), streamSlot(r.streamOf(u), s, r.idxBits))
		}
	}
	if r.full = slots == r.MaxDegree; r.full {
		r.part.seal()
	}
}

// NewNode implements bcc.Algorithm on the bare algorithm, for callers
// that drive a node by hand: a one-replica run whose rows are the
// node's ports, in port order, and then its own. The own row holds the
// node's whole stream from the start; the run reads only the slots its
// rounds completed, and a truncated run claims the node's own slots
// anyway.
func (a *NeighborhoodBroadcast) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	bare := &struct {
		run  nbRun
		node [1]nbNode
	}{}
	r := &bare.run
	r.NeighborhoodBroadcast = a
	r.nodes = bare.node[:]
	if view.Knowledge == bcc.KT1 && view.AllIDs != nil {
		n := view.NumPorts + 1
		r.ix = newIndexer(view.AllIDs)
		r.idxBits = bitsFor(n)
		r.words = streamWords(a.MaxDegree, r.idxBits)
		r.stream = make([]uint64, n*r.words)
		ranks := make([]int32, n+a.MaxDegree)
		r.vertexRank, r.slotArena = ranks[:n:n], ranks[n:]
		portRanks(r.vertexRank, r.ix, view)
	}
	node := r.newNode(0, view.NumPorts, view, func(p int) int { return p })
	own := r.streamOf(view.NumPorts)
	for t := 1; t <= a.Rounds(view.NumPorts+1); t++ {
		if node.Send(t).BitAt(0) != 0 {
			recordBit(own, t-1)
		}
	}
	return node
}

// nbNode is one replica: its rank and own slots.
type nbNode struct {
	run    *nbRun
	slots  []int32 // input-neighbour ranks, padded with self
	self   int32
	broken bool
}

// Send is the round's broadcast: bit (t−1) mod ⌈log₂ n⌉ of slot
// (t−1) div ⌈log₂ n⌉, silence past the last slot.
func (n *nbNode) Send(round int) bcc.Message {
	if n.broken {
		return bcc.Silence
	}
	b := n.run.idxBits
	slot := (round - 1) / b
	if slot >= len(n.slots) {
		return bcc.Silence
	}
	return bcc.Bit(uint8(n.slots[slot]>>uint((round-1)%b)) & 1)
}

// Receive implements bcc.Node for a bare node, whose run hears the
// inbox in its port rows; a bound run's nodes hear nothing (the run
// hears for them).
func (n *nbNode) Receive(round int, inbox []bcc.Message) { n.run.Hear(round, inbox) }

// outputs decides from the shared partition on a complete run;
// otherwise from the complete slots the run heard, in a scratch copy
// refined with the replica's own slots, which its broadcasts delivered
// only in part. Callers are sequential.
func (n *nbNode) outputs() componentOutputs {
	if n.broken {
		return componentOutputs{verdict: bcc.VerdictNo, label: -1}
	}
	r := n.run
	r.finish()
	if r.full {
		return r.part.outputs(r.ix, int(n.self))
	}
	p := &r.scratch
	p.comp.CopyFrom(&r.part.comp)
	for _, u := range n.slots {
		p.claim(int(n.self), int(u))
	}
	p.seal()
	return p.outputs(r.ix, int(n.self))
}

// Decide implements bcc.Decider: YES iff the reconstructed input graph is
// connected.
func (n *nbNode) Decide() bcc.Verdict { return n.outputs().verdict }

// Label implements bcc.Labeler: the smallest ID in this vertex's
// component.
func (n *nbNode) Label() int { return n.outputs().label }

var (
	_ bcc.Algorithm = (*NeighborhoodBroadcast)(nil)
	_ bcc.RunBinder = (*NeighborhoodBroadcast)(nil)
	_ bcc.BoundRun  = (*nbRun)(nil)
	_ bcc.BitRun    = (*nbRun)(nil)
	_ bcc.Decider   = (*nbNode)(nil)
	_ bcc.Labeler   = (*nbNode)(nil)
)
