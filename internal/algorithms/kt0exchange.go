package algorithms

import (
	"fmt"
	"math/bits"
	"sync"

	"bcclique/internal/bcc"
)

// KT0Exchange solves Connectivity (and ConnectedComponents) for bounded-
// degree inputs in the KT-0 variant of BCC(1), where vertices initially
// know nothing about who is behind their ports. It realizes the paper's
// Section 1 observation that the KT-0/KT-1 distinction dissolves once
// b·rounds ≥ log n:
//
//	Phase 1 (IDBits rounds): every vertex broadcasts its own ID bit by
//	bit; afterwards each vertex knows the ID behind every port.
//	Phase 2 (MaxDegree·IDBits rounds): as NeighborhoodBroadcast, but
//	slots carry neighbour IDs learned through input ports.
//
// Total: (MaxDegree+1)·IDBits rounds of 1 bit — O(log n) for 2-regular
// inputs, matching the KT-0 Ω(log n) lower bound of Theorem 3.1.
//
// What each replica accumulates is a projection of one global object:
// the per-vertex announcement streams, identical in every inbox. A
// phase-2 stream holds MaxDegree slots of IDBits bits in
// ⌈MaxDegree·IDBits/64⌉ words, and a slot that straddles a word
// boundary is decoded from both words. Under the runner's RunBinder
// protocol the n per-replica stream tables (n−1 ID words plus n−1
// streams each — the Θ(n²) dominating large cells) collapse into one
// run-shared pair uid[u]/stream(u), filled once per round as the run
// hears it. On every complete schedule each replica's reconstructed
// claim graph coincides with the shared one, so one partition is
// sealed once and read per-replica in O(1); only truncated runs, where
// the replicas' universes genuinely diverge (a partial uid differs
// from a vertex's own full ID), reconstruct the classic per-replica
// outputs from the shared streams. On the bit plane the run also writes
// each round's words itself (SendBits): the round's phase, slot and bit
// are worked out once, and one pass over the node arena reads every
// live vertex's bit from its own ID or from the uid of its slot's input
// neighbour. Bare NewNode keeps
// the old self-contained per-node accumulation for callers that drive
// nodes by hand through Send and Receive, and the nodes' Send is the
// reference SendBits is tested against.
type KT0Exchange struct {
	// MaxDegree is the degree bound the schedule is provisioned for.
	MaxDegree int
	// IDBits is the width of the ID announcements; every instance ID
	// must fit (IDs are O(log n)-bit in the model).
	IDBits int
}

// NewKT0Exchange returns the algorithm for the given degree bound and ID
// width.
func NewKT0Exchange(maxDegree, idBits int) (*KT0Exchange, error) {
	if maxDegree < 1 {
		return nil, fmt.Errorf("algorithms: max degree %d < 1", maxDegree)
	}
	if idBits < 1 || idBits > 62 {
		return nil, fmt.Errorf("algorithms: id width %d outside [1,62]", idBits)
	}
	return &KT0Exchange{MaxDegree: maxDegree, IDBits: idBits}, nil
}

// Name implements bcc.Algorithm.
func (a *KT0Exchange) Name() string { return "kt0-exchange" }

// Bandwidth implements bcc.Algorithm: this is a BCC(1) algorithm.
func (a *KT0Exchange) Bandwidth() int { return 1 }

// Rounds implements bcc.Algorithm.
func (a *KT0Exchange) Rounds(int) int { return (a.MaxDegree + 1) * a.IDBits }

// streamWords is the length in words of one phase-2 stream.
func streamWords(maxDegree, idBits int) int { return (maxDegree*idBits + 63) >> 6 }

// record ORs a set bit one sender broadcast in the given round into its
// announcement: the phase-1 ID word or the phase-2 stream.
func record(id *uint64, stream []uint64, idBits, round int) {
	if round <= idBits {
		*id |= 1 << uint(round-1)
		return
	}
	recordBit(stream, round-idBits-1)
}

// recordBit sets bit off of a slot stream. Bits past the stream's end
// (a transcript longer than the schedule, as a hand-driven node may be
// fed) vanish.
func recordBit(stream []uint64, off int) {
	if off>>6 < len(stream) {
		stream[off>>6] |= 1 << uint(off&63)
	}
}

// streamSlot decodes the s-th idBits-wide slot of a phase-2 stream,
// joining the two words a slot straddles.
func streamSlot(stream []uint64, s, idBits int) int {
	off := s * idBits
	w, sh := off>>6, uint(off&63)
	v := stream[w] >> sh
	if sh+uint(idBits) > 64 {
		v |= stream[w+1] << (64 - sh)
	}
	return int(v & (1<<uint(idBits) - 1))
}

// kt0RunPool recycles the run-shared stream tables and node arenas.
var kt0RunPool = sync.Pool{New: func() interface{} { return new(kt0Run) }}

// BindRun implements bcc.RunBinder: one shared announcement mirror per
// run. kt0-exchange reads nothing KT-1-specific, so binding works on
// every knowledge variant.
func (a *KT0Exchange) BindRun(in *bcc.Instance, _ int) bcc.BoundRun {
	r := kt0RunPool.Get().(*kt0Run)
	n := in.N()
	r.KT0Exchange = a
	r.in = in
	r.rounds = 0
	r.finished = false
	r.full = false
	r.nextNode = 0
	r.words = streamWords(a.MaxDegree, a.IDBits)
	if cap(r.uid) < n {
		r.uid = make([]uint64, n)
	}
	if cap(r.stream) < n*r.words {
		r.stream = make([]uint64, n*r.words)
	}
	r.uid = r.uid[:n]
	r.stream = r.stream[:n*r.words]
	clear(r.uid)
	clear(r.stream)
	if cap(r.nodes) < n {
		r.nodes = make([]kt0Node, n)
	}
	r.nodes = r.nodes[:n]
	r.nbrs = r.nbrs[:0]
	if want := 2 * in.Input().M(); cap(r.nbrs) < want {
		r.nbrs = make([]int32, 0, want)
	}
	return r
}

// kt0Run is the run-shared announcement mirror: uid[u] collects the
// phase-1 bits vertex u broadcast, stream(u) its phase-2 slot stream —
// exactly the columns every replica's per-port tables would have held.
// The run transcribes each round's broadcasts as it hears them.
type kt0Run struct {
	*KT0Exchange
	in       *bcc.Instance
	uid      []uint64
	stream   []uint64 // n phase-2 streams, vertex-major
	words    int      // length of one stream
	rounds   int      // last heard round = the run's actual length
	nodes    []kt0Node
	nextNode int
	nbrs     []int32 // per-node input-neighbour arena

	// Shared outputs, computed after the last round (see finishShared):
	// on a complete schedule, part over ix's ranks is every replica's
	// partition; scratch serves the truncated per-replica universes.
	finished bool
	full     bool
	ids      []int // uid as ints, the shared universe ix indexes
	ix       *indexer
	part     partition
	scratch  partition
}

// NewNode implements bcc.Algorithm on the bound run. Nodes come out of
// the run's arena; the arena index is the vertex index (the runner
// constructs nodes in vertex order), which is what ties each replica to
// its column of the shared mirror.
func (r *kt0Run) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	var node *kt0Node
	if r.nextNode < len(r.nodes) {
		node = &r.nodes[r.nextNode]
		*node = kt0Node{self: int32(r.nextNode)}
		r.nextNode++
	} else {
		node = &kt0Node{}
	}
	node.run = r
	node.id = view.ID
	node.idBits = r.IDBits
	node.maxDegree = r.MaxDegree
	if view.ID < 0 || view.ID >= 1<<uint(r.IDBits) || len(view.InputPorts) > r.MaxDegree {
		node.broken = true
		return node
	}
	start := len(r.nbrs)
	for _, p := range view.InputPorts {
		r.nbrs = append(r.nbrs, int32(r.in.NeighborAt(int(node.self), p)))
	}
	node.nbrOfSlot = r.nbrs[start:len(r.nbrs):len(r.nbrs)]
	return node
}

// ReleaseRun implements bcc.BoundRun.
func (r *kt0Run) ReleaseRun() {
	r.KT0Exchange = nil
	r.in = nil
	r.ix = nil
	kt0RunPool.Put(r)
}

// Hear implements bcc.BoundRun: the broadcast vector is vertex-indexed
// with every vertex's own entry present, which is exactly the shared
// mirror's layout, so the run transcribes it verbatim.
func (r *kt0Run) Hear(round int, sends []bcc.Message) {
	r.rounds = round
	for u, m := range sends {
		r.accumulate(u, m.BitAt(0), round)
	}
}

// HearBits implements bcc.BitRun: only set value bits matter (the
// generic path ORs zeros in as no-ops), so the run transcribes every
// set bit, each vertex's own included, into the vertex-indexed tables.
func (r *kt0Run) HearBits(round int, value, _ []uint64) {
	r.rounds = round
	for wi, w := range value {
		for w != 0 {
			u := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			r.accumulate(u, 1, round)
		}
	}
}

// BindPlane implements bcc.BitRun: any wiring is accepted, since the
// run's mirror is vertex-indexed.
func (r *kt0Run) BindPlane(bool) bool { return true }

// SendBits implements bcc.BitRun with the nodes' two-phase schedule.
// In phase 1 every live vertex sends bit t−1 of its own ID; in phase 2
// it sends the round's bit of its slot: the uid of the input neighbour
// behind that slot, or its own ID as filler. Broken vertices, and
// every vertex past the last slot, stay silent. The uids are complete
// by phase 2, since the run heard phase 1 first.
func (r *kt0Run) SendBits(t int, value, spoke []uint64) {
	phase2 := t > r.IDBits
	slot, bit := 0, uint(t-1)
	if phase2 {
		off := t - r.IDBits - 1
		slot, bit = off/r.IDBits, uint(off%r.IDBits)
		if slot >= r.MaxDegree {
			return
		}
	}
	for v := range r.nodes {
		n := &r.nodes[v]
		if n.broken {
			continue
		}
		id := uint64(n.id)
		if phase2 && slot < len(n.nbrOfSlot) {
			id = r.uid[n.nbrOfSlot[slot]]
		}
		spoke[v>>6] |= 1 << uint(v&63)
		value[v>>6] |= id >> bit & 1 << uint(v&63)
	}
}

// streamOf returns vertex u's phase-2 stream in the mirror.
func (r *kt0Run) streamOf(u int) []uint64 { return r.stream[u*r.words : (u+1)*r.words] }

// accumulate records that vertex u broadcast the given bit in round t.
func (r *kt0Run) accumulate(u int, bit uint8, round int) {
	if bit&1 != 0 {
		record(&r.uid[u], r.streamOf(u), r.IDBits, round)
	}
}

// finishShared builds the shared partition once the run is over. Only
// meaningful (full) when the schedule ran to completion: then every
// non-broken replica's reconstructed universe and claim graph coincide
// with the shared ones — uid[v] is v's own full ID, and v's announced
// phase-2 stream decodes to exactly the port claims v would have
// entered for itself — so one sealed partition serves all n replicas.
// Callers are sequential (the runner's output epilogue).
func (r *kt0Run) finishShared() {
	if r.finished {
		return
	}
	r.finished = true
	if r.rounds < (r.MaxDegree+1)*r.IDBits {
		return // truncated: universes diverge; replicas take the slow path
	}
	r.ids = r.ids[:0]
	for _, id := range r.uid {
		r.ids = append(r.ids, int(id))
	}
	r.ix = newIndexer(r.ids)
	r.part.reset(r.ix.n())
	for u, id := range r.ids {
		v := r.ix.rank(id)
		for s := 0; s < r.MaxDegree; s++ {
			r.part.claim(v, r.ix.rank(streamSlot(r.streamOf(u), s, r.IDBits)))
		}
	}
	r.part.seal()
	r.full = true
}

// NewNode implements bcc.Algorithm on the bare (unbound) algorithm: the
// classic self-contained node that accumulates its own per-port stream
// tables, for callers that drive nodes by hand.
func (a *KT0Exchange) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	node := &kt0Node{
		id:         view.ID,
		idBits:     a.IDBits,
		maxDegree:  a.MaxDegree,
		inputPorts: append([]int(nil), view.InputPorts...),
		portID:     make([]uint64, view.NumPorts),
		phase2:     make([]uint64, view.NumPorts*streamWords(a.MaxDegree, a.IDBits)),
	}
	if view.ID < 0 || view.ID >= 1<<uint(a.IDBits) {
		node.broken = true
	}
	if len(view.InputPorts) > a.MaxDegree {
		node.broken = true
	}
	return node
}

// kt0Node is one replica. In run-shared mode (run != nil) its residue
// is the vertex index and the input-neighbour slot table; in private
// mode it carries the classic per-port uid/stream tables.
type kt0Node struct {
	run        *kt0Run
	id         int
	idBits     int
	maxDegree  int
	inputPorts []int    // private mode
	portID     []uint64 // private mode: phase-1 ID heard on each port
	phase2     []uint64 // private mode: phase-2 stream heard on each port, port-major
	rounds     int      // private mode
	self       int32    // shared mode: vertex index
	nbrOfSlot  []int32  // shared mode: vertex behind the s-th input port
	broken     bool
}

// heardID returns the phase-1 announcement of the vertex behind input
// slot s.
func (n *kt0Node) heardID(s int) uint64 {
	if n.run != nil {
		return n.run.uid[n.nbrOfSlot[s]]
	}
	return n.portID[n.inputPorts[s]]
}

// heard returns the phase-1 announcement and phase-2 stream of the i-th
// of the n−1 other vertices: port i's in private mode, and in a bound
// run the i-th vertex index other than self.
func (n *kt0Node) heard(i int) (uint64, []uint64) {
	if r := n.run; r != nil {
		if i >= int(n.self) {
			i++
		}
		return r.uid[i], r.streamOf(i)
	}
	return n.portID[i], n.portStream(i)
}

// portStream returns the phase-2 stream heard on port p (private mode).
func (n *kt0Node) portStream(p int) []uint64 {
	w := streamWords(n.maxDegree, n.idBits)
	return n.phase2[p*w : (p+1)*w]
}

func (n *kt0Node) degree() int {
	if n.run != nil {
		return len(n.nbrOfSlot)
	}
	return len(n.inputPorts)
}

// Send is the round's broadcast: bit t−1 of the node's own ID in
// phase 1; in phase 2 the round's bit of its slot, silence past the
// last slot.
func (n *kt0Node) Send(round int) bcc.Message {
	if n.broken {
		return bcc.Silence
	}
	if round <= n.idBits {
		return bcc.Bit(uint8(n.id>>uint(round-1)) & 1)
	}
	r := round - n.idBits - 1
	slot, bit := r/n.idBits, uint(r%n.idBits)
	switch {
	case slot >= n.maxDegree:
		return bcc.Silence
	case slot < n.degree():
		// Announce the ID learned on our slot-th input port.
		return bcc.Bit(uint8(n.heardID(slot)>>bit) & 1)
	}
	// Filler: our own ID ("no neighbour").
	return bcc.Bit(uint8(n.id>>bit) & 1)
}

// Receive implements bcc.Node for a private replica; a bound run's
// nodes hear nothing (the run hears for them).
func (n *kt0Node) Receive(round int, inbox []bcc.Message) {
	if n.broken {
		return
	}
	n.rounds = round
	for p, m := range inbox {
		if m.BitAt(0) != 0 {
			record(&n.portID[p], n.portStream(p), n.idBits, round)
		}
	}
}

// outputs decides from the shared partition on a complete bound run;
// otherwise from the replica's own universe and claims, rebuilt in a
// fresh partition (the run's scratch one in a bound run). Callers are
// sequential.
func (n *kt0Node) outputs() componentOutputs {
	if n.broken {
		return componentOutputs{verdict: bcc.VerdictNo, label: -1}
	}
	var p *partition
	others, rounds := len(n.portID), n.rounds
	if r := n.run; r != nil {
		r.finishShared()
		if r.full {
			// Complete schedule: the shared partition is every
			// non-broken replica's partition.
			return r.part.outputs(r.ix, r.ix.rank(n.id))
		}
		p, others, rounds = &r.scratch, len(r.uid)-1, r.rounds
	} else {
		p = new(partition)
	}
	// The replica's universe is its own full ID plus the (possibly
	// partial) announcements of everyone else.
	allIDs := make([]int, 0, others+1)
	allIDs = append(allIDs, n.id)
	for i := 0; i < others; i++ {
		id, _ := n.heard(i)
		allIDs = append(allIDs, int(id))
	}
	ix := newIndexer(allIDs)
	self := ix.rank(n.id)
	p.reset(ix.n())
	for s := 0; s < n.degree(); s++ {
		p.claim(self, ix.rank(int(n.heardID(s))))
	}
	slots := min((rounds-n.idBits)/n.idBits, n.maxDegree)
	for i := 0; i < others; i++ {
		id, stream := n.heard(i)
		v := ix.rank(int(id))
		for s := 0; s < slots; s++ {
			p.claim(v, ix.rank(streamSlot(stream, s, n.idBits)))
		}
	}
	p.seal()
	return p.outputs(ix, self)
}

// Decide implements bcc.Decider.
func (n *kt0Node) Decide() bcc.Verdict { return n.outputs().verdict }

// Label implements bcc.Labeler.
func (n *kt0Node) Label() int { return n.outputs().label }

var (
	_ bcc.Algorithm = (*KT0Exchange)(nil)
	_ bcc.RunBinder = (*KT0Exchange)(nil)
	_ bcc.BoundRun  = (*kt0Run)(nil)
	_ bcc.BitRun    = (*kt0Run)(nil)
	_ bcc.Decider   = (*kt0Node)(nil)
	_ bcc.Labeler   = (*kt0Node)(nil)
)
