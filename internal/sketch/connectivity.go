package sketch

import (
	"fmt"
	"sort"
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
// start, before it decides whether to transmit. Bare NewNode keeps the
// classic self-contained replica (per-port accumulation, private
// union-find) for callers that drive nodes by hand — including ones
// that feed forged inboxes, which the shared row table could not
// represent.
type Connectivity struct {
	// Arboricity is the promised arboricity bound a.
	Arboricity int
	rec        *Recoverer // 4a-sparse, immutable, shared by every run and node
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
func phases(n int) int {
	p := 1
	for (1 << uint(p)) < n {
		p++
	}
	return p + 1
}

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
	r.retiredCount = 0
	r.labelsDone = false
	r.nextNode = 0
	r.nodes = r.nodes[:0]
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
		r.vertexRank[v] = int32(rankIn(ids, in.ID(v)))
	}
	if cap(r.nodes) < n {
		r.nodes = make([]sketchNode, n)
	}
	r.nodes = r.nodes[:n]
	r.nbrs = r.nbrs[:0]
	if want := 2 * in.Input().M(); cap(r.nbrs) < want {
		r.nbrs = make([]int, 0, want)
	}
	return r
}

// rankIn returns id's index in the sorted universe (-1 if absent).
func rankIn(universe []int, id int) int {
	i := sort.SearchInts(universe, id)
	if i < len(universe) && universe[i] == id {
		return i
	}
	return -1
}

// sketchRun is the run-shared substrate and retirement mirror: the
// sorted universe, the per-phase row table every transmitting replica
// deposits its sketch into, and the replicated retired/union-find
// state computed once per phase.
type sketchRun struct {
	*Connectivity
	universe   []int // nil → run invalid, every node broken
	vertexRank []int32
	// rows[v] is the sketch vertex v is transmitting this phase (nil if
	// silent), written by each replica into its own slot at phase start.
	rows         [][]uint64
	retired      []bool // by universe rank
	retiredCount int
	comp         dsu.DSU
	nodes        []sketchNode
	nextNode     int
	nbrs         []int // live-neighbour arena (IDs, filtered in place per node)
	// Label epilogue, computed once: minRank[rank] = smallest rank in
	// its component.
	labelsDone bool
	minRank    []int32
}

// NewNode implements bcc.Algorithm on the bound run.
func (r *sketchRun) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	var node *sketchNode
	vertex := r.nextNode
	if vertex < len(r.nodes) {
		node = &r.nodes[vertex]
		r.nextNode++
		*node = sketchNode{}
	} else {
		node = &sketchNode{}
	}
	node.run = r
	node.a = r.Arboricity
	node.rec = r.rec
	if r.universe == nil || view.Knowledge != bcc.KT1 || view.AllIDs == nil {
		node.broken = true
		return node
	}
	node.id = view.ID
	node.vertex = int32(vertex)
	node.selfRank = r.vertexRank[vertex]
	start := len(r.nbrs)
	for _, p := range view.InputPorts {
		r.nbrs = append(r.nbrs, view.PortID(p))
	}
	node.liveNbrs = r.nbrs[start:len(r.nbrs):len(r.nbrs)]
	return node
}

// ReleaseRun implements bcc.BoundRun.
func (r *sketchRun) ReleaseRun() {
	r.Connectivity = nil
	r.universe = nil
	for v := range r.rows {
		r.rows[v] = nil
	}
	sketchRunPool.Put(r)
}

// Hear implements bcc.BoundRun. The broadcast vector is a projection of
// the row table the replicas already share, so only the phase's last
// round matters: the run decodes every deposited sketch and applies
// the phase's retirements to the shared mirror. Vertex-ascending decode
// order differs from the classic per-replica order (own row first, then
// ports), but retirements and the union set are order-independent.
func (r *sketchRun) Hear(round int, _ []bcc.Message) {
	if r.universe == nil || round%r.rec.Len() != 0 {
		return
	}
	for v, row := range r.rows {
		if row == nil {
			continue
		}
		nbrs, ok := r.rec.Decode(row, r.universe)
		if !ok {
			continue
		}
		sr := int(r.vertexRank[v])
		if !r.retired[sr] {
			r.retired[sr] = true
			r.retiredCount++
		}
		for _, w := range nbrs {
			if wr := rankIn(r.universe, w); wr >= 0 {
				r.comp.Union(sr, wr)
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

// NewNode implements bcc.Algorithm on the bare (unbound) algorithm: the
// classic self-contained replica with per-port accumulation and its own
// union-find.
func (c *Connectivity) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	node := &sketchNode{a: c.Arboricity, rec: c.rec}
	if view.Knowledge != bcc.KT1 || view.AllIDs == nil {
		node.broken = true
		return node
	}
	node.id = view.ID
	if sort.IntsAreSorted(view.AllIDs) {
		// View.AllIDs is the instance's shared pre-sorted list; alias it
		// read-only instead of copying O(n) per node.
		node.universe = view.AllIDs
	} else {
		node.universe = append([]int(nil), view.AllIDs...)
		sort.Ints(node.universe)
	}
	for _, p := range view.InputPorts {
		node.liveNbrs = append(node.liveNbrs, view.PortID(p))
	}
	node.view = view
	node.retired = make([]bool, len(node.universe))
	node.comp = dsu.New(len(node.universe))
	node.phaseBuf = make([][]uint64, view.NumPorts)
	node.phaseSilent = make([]bool, view.NumPorts)
	return node
}

// sketchNode is one replica. In run-shared mode (run != nil) its
// residue is its rank, vertex slot, and private live-neighbour set; in
// private mode it carries the classic per-port buffers and its own
// replica of the global state.
type sketchNode struct {
	run      *sketchRun
	a        int
	id       int
	vertex   int32 // shared mode: row-table slot
	selfRank int32 // shared mode: universe rank
	liveNbrs []int // IDs of not-yet-retired input neighbours
	sketch   []uint64
	rec      *Recoverer
	// Private-mode state.
	universe    []int // all IDs, ascending; rank queries binary-search it
	view        bcc.View
	retired     []bool // by universe rank; replicated identically everywhere
	selfRetired bool
	comp        *dsu.DSU
	phaseBuf    [][]uint64 // per-port accumulated field elements this phase
	phaseSilent []bool     // per-port: sender silent at any point this phase
	broken      bool
}

func (n *sketchNode) sketchLen() int { return 2*(4*n.a) + 1 }

func (n *sketchNode) Send(round int) bcc.Message {
	if n.broken {
		return bcc.Silence
	}
	pos := (round - 1) % n.sketchLen()
	if pos == 0 {
		if n.run != nil {
			n.syncRetired()
		}
		// Phase start: decide whether to transmit this phase.
		n.sketch = nil
		if !n.selfRetired && len(n.liveNbrs) <= 4*n.a {
			s, err := n.rec.Encode(n.liveNbrs)
			if err == nil {
				n.sketch = s
			}
		}
		if n.run != nil {
			// Deposit in our own row slot (disjoint writes per replica).
			n.run.rows[n.vertex] = n.sketch
		}
	}
	if n.sketch == nil {
		return bcc.Silence
	}
	return bcc.Word(n.sketch[pos], 31)
}

// syncRetired re-syncs a bound replica's private residue from the
// shared mirror the run advanced when it heard the last phase end. The
// run hears rounds on the runner's goroutine after the send barrier,
// so the reads below are ordered after it.
func (n *sketchNode) syncRetired() {
	r := n.run
	n.selfRetired = r.retired[n.selfRank]
	live := n.liveNbrs[:0]
	for _, w := range n.liveNbrs {
		if wr := rankIn(r.universe, w); wr >= 0 && !r.retired[wr] {
			live = append(live, w)
		}
	}
	n.liveNbrs = live
}

// Receive implements bcc.Node for a private replica; a bound run's
// nodes hear nothing (the run hears for them).
func (n *sketchNode) Receive(round int, inbox []bcc.Message) {
	if n.broken {
		return
	}
	pos := (round - 1) % n.sketchLen()
	if pos == 0 {
		for p := range n.phaseBuf {
			n.phaseBuf[p] = n.phaseBuf[p][:0]
			n.phaseSilent[p] = false
		}
	}
	for p, m := range inbox {
		if m.IsSilent() {
			n.phaseSilent[p] = true
			continue
		}
		n.phaseBuf[p] = append(n.phaseBuf[p], m.Bits)
	}
	if pos == n.sketchLen()-1 {
		n.endPhase()
	}
}

// endPhase decodes every completed sketch and updates the replicated
// global state (private mode). All replicas process identical
// broadcasts, so they stay in lockstep.
func (n *sketchNode) endPhase() {
	type retirement struct {
		sender int
		nbrs   []int
	}
	var retirements []retirement
	// Our own transmission retires us.
	if n.sketch != nil {
		retirements = append(retirements, retirement{sender: n.id, nbrs: append([]int(nil), n.liveNbrs...)})
	}
	for p, buf := range n.phaseBuf {
		if n.phaseSilent[p] || len(buf) != n.sketchLen() {
			continue
		}
		nbrs, ok := n.rec.Decode(buf, n.universe)
		if !ok {
			continue
		}
		retirements = append(retirements, retirement{sender: n.view.PortID(p), nbrs: nbrs})
	}
	for _, r := range retirements {
		sr := rankIn(n.universe, r.sender)
		if sr < 0 {
			continue
		}
		n.retired[sr] = true
		if r.sender == n.id {
			n.selfRetired = true
		}
		for _, w := range r.nbrs {
			if wr := rankIn(n.universe, w); wr >= 0 {
				n.comp.Union(sr, wr)
			}
		}
	}
	// Drop retired neighbours from the live set.
	live := n.liveNbrs[:0]
	for _, w := range n.liveNbrs {
		if wr := rankIn(n.universe, w); wr >= 0 && !n.retired[wr] {
			live = append(live, w)
		}
	}
	n.liveNbrs = live
}

// done reports whether every vertex retired (all edges recovered).
func (n *sketchNode) done() bool {
	if r := n.run; r != nil {
		return r.retiredCount == len(r.universe)
	}
	for _, r := range n.retired {
		if !r {
			return false
		}
	}
	return true
}

// Decide implements bcc.Decider: YES iff all vertices retired and the
// recovered graph is connected.
func (n *sketchNode) Decide() bcc.Verdict {
	if n.broken || !n.done() {
		return bcc.VerdictNo
	}
	if r := n.run; r != nil {
		if r.comp.Sets() == 1 {
			return bcc.VerdictYes
		}
		return bcc.VerdictNo
	}
	if n.comp.Sets() == 1 {
		return bcc.VerdictYes
	}
	return bcc.VerdictNo
}

// Label implements bcc.Labeler: smallest ID in this vertex's component,
// or −1 if the arboricity promise was violated.
func (n *sketchNode) Label() int {
	if n.broken || !n.done() {
		return -1
	}
	if r := n.run; r != nil {
		r.finishLabels()
		return r.universe[r.minRank[n.selfRank]]
	}
	return n.universe[n.comp.Least(nil)[rankIn(n.universe, n.id)]]
}

var (
	_ bcc.Algorithm = (*Connectivity)(nil)
	_ bcc.RunBinder = (*Connectivity)(nil)
	_ bcc.BoundRun  = (*sketchRun)(nil)
	_ bcc.Decider   = (*sketchNode)(nil)
	_ bcc.Labeler   = (*sketchNode)(nil)
)
