package algorithms

import (
	"fmt"
	"math/bits"
	"sync"

	"bcclique/internal/bcc"
)

// Flood is the naive KT-1 BCC(b) baseline: every vertex broadcasts its
// full adjacency row — one bit per other vertex, in sorted-ID order —
// packed b bits per round. After ⌈(n−1)/b⌉ rounds every vertex knows the
// entire input graph. Θ(n/b) rounds: the curve the O(log n) algorithms
// are measured against in experiment E12.
//
// At b = 1 flood is the bit plane's flagship rider: the row lives in a
// bitset, and HearBits consumes 64 adjacency claims per word by
// trailing-zero iteration straight into the incremental union-find. A
// bound run writes each round's plane words itself from two rows
// (SendBits, O(n/64) a round), so a run costs O(n²/64) word operations,
// not n² per-vertex sends. The nodes' Send serves the Message-vector
// oracle and bare replicas, and is the reference SendBits is tested
// against.
//
// That union-find is a pure function of the broadcast transcript, so
// under the runner's RunBinder protocol the n per-replica replicas
// collapse into one run-shared partition that the run feeds once per
// round as it hears it — own bits included, since every vertex's own
// claims re-arrive through its own broadcast. Per-replica residue is
// just the vertex's own adjacency row. On a schedule that covers the
// whole row the shared partition is every non-broken replica's
// partition; truncated runs refine a scratch copy with the replica's
// own full row (the part of its knowledge the broadcasts never
// delivered). Bare NewNode keeps the classic self-contained replica,
// driven by hand through Send and Receive.
type Flood struct {
	// B is the per-round bandwidth.
	B int
}

// NewFlood returns the baseline with bandwidth b.
func NewFlood(b int) (*Flood, error) {
	if b < 1 || b > bcc.MaxBandwidth {
		return nil, fmt.Errorf("algorithms: bandwidth %d outside [1,%d]", b, bcc.MaxBandwidth)
	}
	return &Flood{B: b}, nil
}

// Name implements bcc.Algorithm.
func (a *Flood) Name() string { return "flood" }

// Bandwidth implements bcc.Algorithm.
func (a *Flood) Bandwidth() int { return a.B }

// Rounds implements bcc.Algorithm.
func (a *Flood) Rounds(n int) int { return (n - 2 + a.B) / a.B } // ⌈(n−1)/B⌉

// floodRunPool recycles the shared partition, the row arena, and the
// node arena across runs.
var floodRunPool = sync.Pool{New: func() interface{} { return new(floodRun) }}

// BindRun implements bcc.RunBinder: one shared claim partition per run.
func (a *Flood) BindRun(in *bcc.Instance, _ int) bcc.BoundRun {
	r := floodRunPool.Get().(*floodRun)
	r.Flood = a
	r.in = in
	r.maxRound = 0
	r.finished = false
	r.full = false
	r.nextNode = 0
	r.nodes = r.nodes[:0]
	if ids := in.SortedIDs(); ids != nil {
		n := len(ids)
		r.ix = newIndexer(ids)
		r.rowLen = n - 1
		r.part.reset(n)
		if cap(r.vertexRank) < n {
			r.vertexRank = make([]int32, n)
		}
		r.vertexRank = r.vertexRank[:n]
		for u := 0; u < n; u++ {
			r.vertexRank[u] = int32(r.ix.rank(in.ID(u)))
		}
		if cap(r.nodes) < n {
			r.nodes = make([]floodNode, n)
		}
		r.nodes = r.nodes[:n]
		rowWords := (r.rowLen + 63) / 64
		if cap(r.rowArena) < n*rowWords {
			r.rowArena = make([]uint64, n*rowWords)
		}
		r.rowArena = r.rowArena[:n*rowWords]
		clear(r.rowArena)
		r.rowWords = rowWords
	} else {
		r.ix = nil
	}
	return r
}

// floodRun is the run-shared substrate: the frozen ID indexer, the
// vertex→rank table, and one broadcast-fed partition standing in for
// all n replicas. The row arena backs every replica's own-row residue.
type floodRun struct {
	*Flood
	in         *bcc.Instance
	ix         *indexer
	part       partition // every claim heard on the broadcast channel
	vertexRank []int32
	rowLen     int
	rowWords   int
	maxRound   int // last round heard that carried row bits
	nodes      []floodNode
	nextNode   int
	rowArena   []uint64
	// full reports whether the schedule covered the whole row (then part
	// is every replica's partition, sealed once); scratch serves the
	// truncated per-replica refinement.
	finished bool
	full     bool
	scratch  partition
}

// NewNode implements bcc.Algorithm on the bound run.
func (r *floodRun) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	var node *floodNode
	vertex := r.nextNode
	if vertex < len(r.nodes) {
		node = &r.nodes[vertex]
		r.nextNode++
		*node = floodNode{}
	} else {
		node = &floodNode{}
	}
	node.run = r
	node.b = r.B
	if r.ix == nil || view.Knowledge != bcc.KT1 || view.AllIDs == nil {
		node.broken = true
		return node
	}
	node.self = int32(r.vertexRank[vertex])
	node.rowLen = int32(r.rowLen)
	node.rowBits = r.rowArena[vertex*r.rowWords : (vertex+1)*r.rowWords : (vertex+1)*r.rowWords]
	for _, p := range view.InputPorts {
		nbr := int(r.vertexRank[r.in.NeighborAt(vertex, p)])
		pos := nbr
		if nbr > int(node.self) {
			pos = nbr - 1
		}
		node.rowBits[pos>>6] |= 1 << uint(pos&63)
	}
	return node
}

// ReleaseRun implements bcc.BoundRun.
func (r *floodRun) ReleaseRun() {
	r.Flood = nil
	r.in = nil
	r.ix = nil
	floodRunPool.Put(r)
}

// Hear implements bcc.BoundRun: the vertex-indexed broadcast vector
// carries every speaker's round-t row segment, own entry included, and
// the run transcribes it verbatim into the shared partition. Every
// non-broken vertex follows the same schedule, so the segment base is
// (t−1)·b for every speaker — exactly what the private path's per-port
// got counters would read.
func (r *floodRun) Hear(t int, sends []bcc.Message) {
	base := (t - 1) * r.B
	if r.ix == nil || base >= r.rowLen {
		return
	}
	r.maxRound = t
	for u, m := range sends {
		speaker := int(r.vertexRank[u])
		for i := 0; i < int(m.Len); i++ {
			pos := base + i
			if pos >= r.rowLen {
				break // trailing bits beyond the row encoding carry nothing
			}
			if m.BitAt(i) == 1 {
				r.part.claim(speaker, rowTarget(speaker, pos))
			}
		}
	}
}

// HearBits implements bcc.BitRun: 64 adjacency claims per word.
// Every non-broken flood node speaks in exactly rounds 1..n−1, so in
// round t every set value bit — own bits included — is a claim at row
// position t−1 (the generic path's per-port got counters all read t−1
// here; the equivalence suite pins this).
func (r *floodRun) HearBits(round int, value, _ []uint64) {
	pos := round - 1
	if r.ix == nil || pos >= r.rowLen {
		return
	}
	r.maxRound = round
	for wi, w := range value {
		for w != 0 {
			u := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			r.part.claim(u, rowTarget(u, pos))
		}
	}
}

// BindPlane implements bcc.BitRun. HearBits and SendBits read plane
// indices as sorted-ID ranks, so the run accepts only the canonical
// wiring, where the two coincide, or a run whose nodes are all broken
// (no sorted IDs), which never speaks; a materialized wiring sends the
// run down the generic path.
func (r *floodRun) BindPlane(canonical bool) bool { return canonical || r.ix == nil }

// SendBits implements bcc.BitRun. In round t vertex u sends bit t−1
// of its row: its claim on rank t when u < t, on rank t−1 when u ≥ t.
// Adjacency is symmetric, so that claim is bit u of rank t's row, or
// bit u−1 of rank t−1's row. The value words are therefore rank t's row
// below bit t and rank t−1's row shifted up one bit from bit t on:
// O(n/64) a round. The plane engages only on the canonical wiring
// (BindPlane), so plane indices are ranks, and so are the row arena's
// vertex indices. Every vertex speaks in rounds 1..n−1; later rounds,
// and every round of a run whose nodes are all broken, stay silent.
func (r *floodRun) SendBits(t int, value, spoke []uint64) {
	if r.ix == nil || t > r.rowLen {
		return
	}
	n := r.rowLen + 1
	for i := range spoke {
		spoke[i] = ^uint64(0)
	}
	if n&63 != 0 {
		spoke[len(spoke)-1] = 1<<uint(n&63) - 1
	}
	below := r.rowArena[t*r.rowWords : (t+1)*r.rowWords]
	above := r.rowArena[(t-1)*r.rowWords : t*r.rowWords]
	w := t >> 6
	copy(value[:w], below[:w])
	var carry uint64
	if w > 0 {
		carry = above[w-1] >> 63
	}
	for i := w; i < len(value); i++ {
		var a uint64
		if i < len(above) {
			a = above[i]
		}
		value[i] = a<<1 | carry
		carry = a >> 63
	}
	if m := uint64(1)<<uint(t&63) - 1; m != 0 {
		value[w] = value[w]&^m | below[w]&m
	}
}

// finishShared decides, once, whether the run covered every row
// position — in which case the shared partition serves all replicas
// and is sealed in one pass; a truncated run's replicas refine it with
// their own rows. Callers are sequential (the runner's output
// epilogue).
func (r *floodRun) finishShared() {
	if r.finished {
		return
	}
	r.finished = true
	if r.full = r.maxRound*r.B >= r.rowLen; r.full {
		r.part.seal()
	}
}

// NewNode implements bcc.Algorithm on the bare (unbound) algorithm: the
// classic self-contained replica with its own partition, for callers
// that drive nodes by hand.
func (a *Flood) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	node := &floodNode{b: a.B}
	if view.Knowledge != bcc.KT1 || view.AllIDs == nil {
		node.broken = true
		return node
	}
	node.ix = newIndexer(view.AllIDs)
	node.self = int32(node.ix.rank(view.ID))
	nn := node.ix.n()
	node.rowLen = int32(nn - 1)
	node.rowBits = make([]uint64, (int(node.rowLen)+63)/64)
	// Incrementally union every adjacency claim as its bit arrives
	// instead of buffering heard rows: memory per node is O(n), not
	// O(n²), and the final decision is a component count. Our own row's
	// claims are entered up front.
	node.part = new(partition)
	node.part.reset(nn)
	for _, p := range view.InputPorts {
		nbr := node.ix.rank(view.PortID(p))
		// row bit i covers sorted index rowTarget(self, i): the
		// encoding skips our own index.
		pos := nbr
		if nbr > int(node.self) {
			pos = nbr - 1
		}
		node.rowBits[pos>>6] |= 1 << uint(pos&63)
		node.part.claim(int(node.self), nbr)
	}
	// Per-port speaker ranks and bit counters for Receive.
	node.portRank = make([]int32, view.NumPorts)
	for p := range node.portRank {
		node.portRank[p] = int32(node.ix.rank(view.PortID(p)))
	}
	node.got = make([]int32, view.NumPorts)
	return node
}

// rowTarget maps position pos of speaker's adjacency-row encoding (which
// skips the speaker's own sorted index) back to the claimed neighbour's
// sorted index.
func rowTarget(speaker, pos int) int {
	if pos < speaker {
		return pos
	}
	return pos + 1
}

// floodNode is one replica: rank, own adjacency row, and — in private
// mode only — its own partition and per-port receive state.
type floodNode struct {
	run     *floodRun // non-nil → run-shared mode
	b       int
	self    int32
	rowLen  int32
	rowBits []uint64 // own adjacency row over the n−1 encoded positions, LSB first

	// Private-mode state.
	ix       *indexer
	part     *partition // every adjacency claim heard (plus our own)
	portRank []int32
	got      []int32 // got[p] = adjacency-row bits received on port p so far
	broken   bool
}

func (n *floodNode) rowBit(pos int) uint64 { return n.rowBits[pos>>6] >> uint(pos&63) & 1 }

func (n *floodNode) Send(round int) bcc.Message {
	if n.broken {
		return bcc.Silence
	}
	start := (round - 1) * n.b
	if start >= int(n.rowLen) {
		return bcc.Silence
	}
	var payload uint64
	length := 0
	for i := start; i < int(n.rowLen) && length < n.b; i++ {
		payload |= n.rowBit(i) << uint(length)
		length++
	}
	return bcc.Word(payload, length)
}

// Receive implements bcc.Node for a private replica; a bound run's
// nodes hear nothing (the run hears for them).
func (n *floodNode) Receive(_ int, inbox []bcc.Message) {
	if n.broken {
		return
	}
	rowLen := n.rowLen
	for p, m := range inbox {
		if m.Len == 0 {
			continue
		}
		speaker := int(n.portRank[p])
		base := n.got[p]
		for i := 0; i < int(m.Len); i++ {
			pos := base + int32(i)
			if pos >= rowLen {
				break // trailing bits beyond the row encoding carry nothing
			}
			if m.BitAt(i) == 1 {
				n.part.claim(speaker, rowTarget(speaker, int(pos)))
			}
		}
		n.got[p] = base + int32(m.Len)
	}
}

// outputs decides from this replica's partition: its own in private
// mode; the shared one on a full-coverage bound run; a scratch
// refinement (shared claims plus the replica's own full row) on a
// truncated bound run. Callers are sequential.
func (n *floodNode) outputs() componentOutputs {
	if n.broken {
		return componentOutputs{verdict: bcc.VerdictNo, label: -1}
	}
	p, ix := n.part, n.ix
	if r := n.run; r != nil {
		r.finishShared()
		if r.full {
			return r.part.outputs(r.ix, int(n.self))
		}
		p, ix = &r.scratch, r.ix
		p.comp.CopyFrom(&r.part.comp)
		for wi, w := range n.rowBits {
			for w != 0 {
				pos := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				p.claim(int(n.self), rowTarget(int(n.self), pos))
			}
		}
	}
	p.seal()
	return p.outputs(ix, int(n.self))
}

// Decide implements bcc.Decider.
func (n *floodNode) Decide() bcc.Verdict { return n.outputs().verdict }

// Label implements bcc.Labeler: the smallest ID in this vertex's
// component of the reconstructed graph.
func (n *floodNode) Label() int { return n.outputs().label }

var (
	_ bcc.Algorithm = (*Flood)(nil)
	_ bcc.RunBinder = (*Flood)(nil)
	_ bcc.BoundRun  = (*floodRun)(nil)
	_ bcc.BitRun    = (*floodRun)(nil)
	_ bcc.Decider   = (*floodNode)(nil)
	_ bcc.Labeler   = (*floodNode)(nil)
)
