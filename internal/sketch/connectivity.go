package sketch

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"bcclique/internal/bcc"
	"bcclique/internal/dsu"
)

// Connectivity is the peeling-based deterministic connectivity algorithm
// for graphs of arboricity ≤ Arboricity in the KT-1 BCC model, the
// executable form of the paper's Section 1.1 tightness remark:
//
//	Every subgraph of an arboricity-a graph has ≤ a(m−1) edges on m
//	vertices, so fewer than half of the still-active vertices can have
//	more than 4a live neighbours. In each phase exactly the ≤ 4a-degree
//	vertices broadcast the (8a+1)-element power-sum sketch of their live
//	neighbourhood, retire, and have their edges entered into every
//	vertex's replica of a global union-find. Active vertex count at
//	least halves per phase, so ⌈log₂ n⌉+1 phases reveal the whole graph.
//
// One field element (31 bits) is shipped per round, so the algorithm runs
// in (⌈log₂ n⌉+1)·(8a+1) rounds of BCC(31) — O(a·log n) rounds, against
// the paper's Ω(log n) lower bound. Spread bit-by-bit over BCC(1) it is
// O(a·log² n); the paper's [MT16] citation reaches O(log n) in BCC(1)
// with heavier machinery, so this is documented as the simplified
// substitution (DESIGN.md §3, E16).
//
// The algorithm is a promise algorithm: on inputs of arboricity greater
// than Arboricity some vertices may never retire, in which case every
// node answers NO / label −1 (detectably, never silently wrong).
//
// The replicated global state — retired flags and the recovered-edge
// union-find — is a deterministic function of the phase's broadcast
// sketches, identical in every inbox. Under the runner's RunBinder
// protocol it therefore lives once per run: each phase, transmitting
// replicas deposit their sketch in their own slot of a shared row
// table at phase start, and the run, hearing the phase's last round,
// decodes every row and applies the retirements. Each replica re-syncs
// its live-neighbour set from the shared retired set at the next phase
// start, before it decides whether to transmit. A bare NewNode, driven
// by hand through Send and Receive, is a one-replica run whose rows
// are the node's ports, which its Receive fills from the inbox, and
// its own sketch.
type Connectivity struct {
	// Arboricity is the promised arboricity bound a.
	Arboricity int
	rec        *Recoverer // 4a-sparse, immutable, shared by every run
}

// NewConnectivity returns the algorithm for arboricity ≤ a.
func NewConnectivity(a int) (*Connectivity, error) {
	if a < 1 {
		return nil, fmt.Errorf("sketch: arboricity %d < 1", a)
	}
	rec, err := NewRecoverer(4 * a)
	if err != nil {
		return nil, err
	}
	return &Connectivity{Arboricity: a, rec: rec}, nil
}

// Name implements bcc.Algorithm.
func (c *Connectivity) Name() string { return "sketch-connectivity" }

// Bandwidth implements bcc.Algorithm: one 31-bit field element per round.
func (c *Connectivity) Bandwidth() int { return 31 }

// phases returns the peeling schedule length for n vertices.
func phases(n int) int { return max(1, bits.Len(uint(n-1))) + 1 }

// Rounds implements bcc.Algorithm: phases × sketch length.
func (c *Connectivity) Rounds(n int) int {
	return phases(n) * (2*(4*c.Arboricity) + 1)
}

// sketchRunPool recycles the run-shared state across runs.
var sketchRunPool = sync.Pool{New: func() interface{} { return new(sketchRun) }}

// BindRun implements bcc.RunBinder: one shared retirement mirror per
// run.
func (c *Connectivity) BindRun(in *bcc.Instance, _ int) bcc.BoundRun {
	r := sketchRunPool.Get().(*sketchRun)
	r.Connectivity = c
	r.in = in
	r.retiredCount = 0
	r.labelsDone = false
	r.nextNode = 0
	r.pos = 0
	if cap(r.nodes) < in.N() {
		r.nodes = make([]sketchNode, in.N())
	}
	r.nodes = r.nodes[:in.N()]
	ids := in.SortedIDs()
	if ids == nil {
		r.universe = nil
		return r
	}
	n := len(ids)
	r.universe = ids
	r.comp.Reset(n)
	if cap(r.retired) < n {
		r.retired = make([]bool, n)
		r.rows = make([][]uint64, n)
		r.vertexRank = make([]int32, n)
	}
	r.retired = r.retired[:n]
	r.rows = r.rows[:n]
	r.vertexRank = r.vertexRank[:n]
	for v := 0; v < n; v++ {
		r.retired[v] = false
		r.rows[v] = nil
		w, _ := slices.BinarySearch(ids, in.ID(v))
		r.vertexRank[v] = int32(w)
	}
	r.bindCandidates(n)
	r.nbrs = r.nbrs[:0]
	if want := 2 * in.Input().M(); cap(r.nbrs) < want {
		r.nbrs = make([]int32, 0, want)
	}
	return r
}

// bindCandidates sizes the candidate table for a universe of n: k slots
// per rank, for k of this run's recoverer, since one pooled run serves
// every arboricity.
func (r *sketchRun) bindCandidates(n int) {
	k := r.rec.K()
	if cap(r.cands) < n*k {
		r.cands = make([]int32, n*k)
	}
	if cap(r.nCands) < n {
		r.nCands = make([]int32, n)
	}
	r.cands, r.nCands = r.cands[:n*k], r.nCands[:n]
}

// sketchRun is the run-shared substrate and retirement mirror: the
// sorted universe, the per-phase row table every transmitting replica
// deposits its sketch into, and the replicated retired/union-find
// state computed once per phase.
type sketchRun struct {
	*Connectivity
	in         *bcc.Instance // the bound instance; nil on a bare node
	universe   []int         // nil → run invalid, every node broken
	vertexRank []int32
	pos        int // the next round's position in its phase
	// rows[v] is the sketch row v carries this phase: a replica's own
	// row is written by the replica at phase start (nil if silent), and
	// a bare node's port rows collect the words each port heard.
	rows         [][]uint64
	retired      []bool // by universe rank
	retiredCount int
	comp         dsu.DSU
	nodes        []sketchNode
	nextNode     int
	nbrs         []int32 // live-neighbour arena (ranks, filtered in place per node)
	ids          []int   // a transmitting node's live neighbours' IDs, for Encode
	// The phase decode's candidates: cands[w·k : w·k+nCands[w]] are the
	// ranks of this phase's decoded rows whose sets hold rank w.
	cands  []int32
	nCands []int32
	found  []int32 // one row's decoded ranks
	// Label epilogue, computed once: minRank[rank] = smallest rank in
	// its component.
	labelsDone bool
	minRank    []int32
}

// NewNode implements bcc.Algorithm on the bound run.
func (r *sketchRun) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	v := r.nextNode
	r.nextNode++
	return r.newNode(v, v, view, func(p int) int { return r.in.NeighborAt(v, p) })
}

// newNode builds the i-th node of the arena, the replica whose own row
// is row, with the rows behind its input ports (rowOf) as its live
// neighbours.
func (r *sketchRun) newNode(i, row int, view bcc.View, rowOf func(p int) int) *sketchNode {
	node := &r.nodes[i]
	*node = sketchNode{run: r}
	if r.universe == nil || view.Knowledge != bcc.KT1 || view.AllIDs == nil {
		node.broken = true
		return node
	}
	node.vertex = int32(row)
	node.selfRank = r.vertexRank[row]
	start := len(r.nbrs)
	for _, p := range view.InputPorts {
		r.nbrs = append(r.nbrs, r.vertexRank[rowOf(p)])
	}
	node.liveNbrs = r.nbrs[start:len(r.nbrs):len(r.nbrs)]
	return node
}

// ReleaseRun implements bcc.BoundRun.
func (r *sketchRun) ReleaseRun() {
	r.Connectivity = nil
	r.in = nil
	r.universe = nil
	for v := range r.rows {
		r.rows[v] = nil
	}
	sketchRunPool.Put(r)
}

// Hear implements bcc.BoundRun. It records the next round's position
// in its phase, which the replicas' sends read. The broadcast vector
// is a projection of the row table the replicas already share, so only
// the phase's last round matters: the run decodes every deposited
// sketch and applies the phase's retirements to the shared mirror.
// Retirements and the union set do not depend on the order the rows
// are decoded in. A row's candidates are the vertices whose rows,
// decoded earlier in the phase, hold its vertex; every vertex hears
// every row, so a vertex of the network could decode the same way. On
// a grid a row's lower neighbours decode first, so no row scans the
// universe.
func (r *sketchRun) Hear(round int, _ []bcc.Message) {
	r.pos = round % r.rec.Len()
	if r.universe == nil || r.pos != 0 {
		return
	}
	k := r.rec.K()
	clear(r.nCands)
	for v, row := range r.rows {
		if row == nil {
			continue
		}
		sr := r.vertexRank[v]
		found, ok := r.rec.decode(r.found[:0], row, r.universe, r.cands[int(sr)*k:][:r.nCands[sr]])
		r.found = found
		if !ok {
			continue
		}
		if !r.retired[sr] {
			r.retired[sr] = true
			r.retiredCount++
		}
		for _, w := range found {
			r.comp.Union(int(sr), int(w))
			if c := r.nCands[w]; int(c) < k {
				r.cands[int(w)*k+int(c)] = sr
				r.nCands[w]++
			}
		}
	}
}

// finishLabels computes per-rank component labels once (sequential
// output epilogue): ascending rank order is ascending ID order, so the
// smallest rank in a component carries its smallest ID.
func (r *sketchRun) finishLabels() {
	if !r.labelsDone {
		r.labelsDone = true
		r.minRank = r.comp.Least(r.minRank)
	}
}

// NewNode implements bcc.Algorithm on the bare algorithm, for callers
// that drive a node by hand: a one-replica run whose rows are the
// node's ports, in port order, and then its own.
func (c *Connectivity) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	bare := &struct {
		run  sketchRun
		node [1]sketchNode
	}{}
	r := &bare.run
	r.Connectivity = c
	r.nodes = bare.node[:]
	if view.Knowledge == bcc.KT1 && view.AllIDs != nil {
		r.universe = view.AllIDs // sorted, and shared read-only by every view
		n := view.NumPorts + 1
		r.comp.Reset(n)
		r.retired = make([]bool, n)
		r.rows = make([][]uint64, n)
		r.vertexRank = make([]int32, n)
		for p := 0; p < view.NumPorts; p++ {
			w, _ := slices.BinarySearch(r.universe, view.PortID(p))
			r.vertexRank[p] = int32(w)
		}
		w, _ := slices.BinarySearch(r.universe, view.ID)
		r.vertexRank[view.NumPorts] = int32(w)
		r.bindCandidates(len(r.universe))
		r.nbrs = make([]int32, 0, len(view.InputPorts))
	}
	return r.newNode(0, view.NumPorts, view, func(p int) int { return p })
}

// sketchNode is one replica: its row and rank, its live-neighbour set,
// and the sketch it transmits this phase.
type sketchNode struct {
	run         *sketchRun
	liveNbrs    []int32 // ranks of not-yet-retired input neighbours
	sketch      []uint64
	vertex      int32 // own row
	selfRank    int32 // universe rank
	synced      int32 // the run's retiredCount at the last syncRetired
	selfRetired bool
	broken      bool
}

// Send implements bcc.Node. The round's position in its phase is the
// one the run recorded when it heard the round before.
func (n *sketchNode) Send(int) bcc.Message {
	if n.broken {
		return bcc.Silence
	}
	r := n.run
	if r.pos == 0 {
		// Phase start: decide whether to transmit this phase.
		n.syncRetired()
		n.sketch = nil
		if !n.selfRetired && len(n.liveNbrs) <= 4*r.Arboricity {
			ids := r.ids[:0]
			for _, w := range n.liveNbrs {
				ids = append(ids, r.universe[w])
			}
			r.ids = ids
			s, err := r.rec.Encode(ids)
			if err == nil {
				n.sketch = s
			}
		}
		// Deposit in our own row (disjoint writes per replica).
		r.rows[n.vertex] = n.sketch
	}
	if n.sketch == nil {
		return bcc.Silence
	}
	return bcc.Word(n.sketch[r.pos], 31)
}

// syncRetired re-syncs a replica's residue from the mirror the run
// advanced when it heard the last phase end. A bound run hears rounds
// on the runner's goroutine after the send barrier, so the reads below
// are ordered after it. Retirements only accumulate, so when the count
// has not moved since the last sync the residue is already current.
func (n *sketchNode) syncRetired() {
	r := n.run
	if int(n.synced) == r.retiredCount {
		return
	}
	n.synced = int32(r.retiredCount)
	n.selfRetired = r.retired[n.selfRank]
	live := n.liveNbrs[:0]
	for _, w := range n.liveNbrs {
		if !r.retired[w] {
			live = append(live, w)
		}
	}
	n.liveNbrs = live
}

// Receive implements bcc.Node for a bare node: each port's row collects
// the words its sender broadcast this phase, and the run hears the
// round, decoding every row at the phase's end. A sender silent in any
// round of the phase leaves a short row, which the decode rejects. A
// bound run's nodes hear nothing (the run hears for them).
func (n *sketchNode) Receive(round int, inbox []bcc.Message) {
	if n.broken {
		return
	}
	r := n.run
	for p, m := range inbox {
		if r.pos == 0 {
			r.rows[p] = r.rows[p][:0]
		}
		if !m.IsSilent() {
			r.rows[p] = append(r.rows[p], m.Bits)
		}
	}
	r.Hear(round, inbox)
}

// done reports whether every vertex retired (all edges recovered).
func (n *sketchNode) done() bool { return n.run.retiredCount == len(n.run.universe) }

// Decide implements bcc.Decider: YES iff all vertices retired and the
// recovered graph is connected.
func (n *sketchNode) Decide() bcc.Verdict {
	if n.broken || !n.done() || n.run.comp.Sets() != 1 {
		return bcc.VerdictNo
	}
	return bcc.VerdictYes
}

// Label implements bcc.Labeler: smallest ID in this vertex's component,
// or −1 if the arboricity promise was violated.
func (n *sketchNode) Label() int {
	if n.broken || !n.done() {
		return -1
	}
	r := n.run
	r.finishLabels()
	return r.universe[r.minRank[n.selfRank]]
}

var (
	_ bcc.Algorithm = (*Connectivity)(nil)
	_ bcc.RunBinder = (*Connectivity)(nil)
	_ bcc.BoundRun  = (*sketchRun)(nil)
	_ bcc.Decider   = (*sketchNode)(nil)
	_ bcc.Labeler   = (*sketchNode)(nil)
)
