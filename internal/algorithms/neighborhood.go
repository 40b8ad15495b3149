package algorithms

import (
	"fmt"
	"math/bits"

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

// BitPlane implements bcc.BitAlgorithm: the algorithm is BCC(1) in
// every configuration.
func (a *NeighborhoodBroadcast) BitPlane() bool { return true }

// NewNode implements bcc.Algorithm.
func (a *NeighborhoodBroadcast) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	node := &nbNode{maxDegree: a.MaxDegree}
	if view.Knowledge != bcc.KT1 || view.AllIDs == nil {
		node.broken = true
		return node
	}
	node.ix = newIndexer(view.AllIDs)
	node.idxBits = bitsFor(node.ix.n())
	node.self = node.ix.rank(view.ID)
	// Neighbour slots: the indices of input-edge neighbours, padded with
	// the vertex's own index ("no neighbour here").
	node.slots = make([]int, a.MaxDegree)
	for i := range node.slots {
		node.slots[i] = node.self
	}
	if len(view.InputPorts) > a.MaxDegree {
		node.broken = true // degree exceeds the provisioned schedule
		return node
	}
	for i, p := range view.InputPorts {
		node.slots[i] = node.ix.rank(view.PortID(p))
	}
	// heard[p] accumulates the bit stream from port p; portRank maps
	// ports to vertex indices.
	node.heard = make([]uint64, view.NumPorts)
	node.portRank = make([]int, view.NumPorts)
	for p := 0; p < view.NumPorts; p++ {
		node.portRank[p] = node.ix.rank(view.PortID(p))
	}
	return node
}

type nbNode struct {
	maxDegree int
	idxBits   int
	ix        *indexer
	self      int
	slots     []int
	heard     []uint64
	portRank  []int
	rounds    int
	broken    bool
}

func (n *nbNode) Send(round int) bcc.Message {
	if n.broken {
		return bcc.Silence
	}
	slot := (round - 1) / n.idxBits
	bit := (round - 1) % n.idxBits
	if slot >= len(n.slots) {
		return bcc.Silence
	}
	return bcc.Bit(uint8(n.slots[slot] >> uint(bit)))
}

func (n *nbNode) Receive(round int, inbox []bcc.Message) {
	if n.broken {
		return
	}
	n.rounds = round
	for p, m := range inbox {
		n.heard[p] |= uint64(m.BitAt(0)) << uint(round-1)
	}
}

// BindPlane implements bcc.BitNode. The per-port bit streams are
// rank-addressed under the canonical wiring (port p of self is rank p
// or p+1), so only the canonical plane is accepted.
func (n *nbNode) BindPlane(self int, canonical bool) bool {
	if n.broken {
		return true // inert
	}
	return canonical && self == n.self
}

// SendBit implements bcc.BitNode: the same slot/bit schedule as Send.
func (n *nbNode) SendBit(round int) (uint8, bool) {
	if n.broken {
		return 0, false
	}
	slot := (round - 1) / n.idxBits
	if slot >= len(n.slots) {
		return 0, false
	}
	return uint8(n.slots[slot]>>uint((round-1)%n.idxBits)) & 1, true
}

// ReceiveBits implements bcc.BitReceiver: only set value bits matter (the
// generic path ORs silent and zero bits in as zeros), so the round is
// consumed by trailing-zero iteration. Our own bit is skipped — the
// rank-check form of the generic path's self-free inbox.
func (n *nbNode) ReceiveBits(round int, value, _ []uint64) {
	if n.broken {
		return
	}
	n.rounds = round
	shift := uint(round - 1)
	selfW, selfM := n.self>>6, uint64(1)<<uint(n.self&63)
	for wi, w := range value {
		if wi == selfW {
			w &^= selfM
		}
		for w != 0 {
			u := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			p := u
			if u > n.self {
				p = u - 1
			}
			n.heard[p] |= 1 << shift
		}
	}
}

func (n *nbNode) outputs() componentOutputs {
	if n.broken {
		return componentOutputs{verdict: bcc.VerdictNo, label: -1}
	}
	nn := n.ix.n()
	claims := make([][]int, nn)
	// Our own claims.
	for _, s := range n.slots {
		claims[n.self] = append(claims[n.self], s)
	}
	slots := n.rounds / n.idxBits
	for p, stream := range n.heard {
		v := n.portRank[p]
		for s := 0; s < slots && s < n.maxDegree; s++ {
			idx := int(stream>>uint(s*n.idxBits)) & ((1 << uint(n.idxBits)) - 1)
			claims[v] = append(claims[v], idx)
		}
	}
	g := claimGraph(nn, claims)
	return outputsFromGraph(g, n.ix, n.self, false)
}

// Decide implements bcc.Decider: YES iff the reconstructed input graph is
// connected.
func (n *nbNode) Decide() bcc.Verdict { return n.outputs().verdict }

// Label implements bcc.Labeler: the smallest ID in this vertex's
// component.
func (n *nbNode) Label() int { return n.outputs().label }

var (
	_ bcc.Algorithm    = (*NeighborhoodBroadcast)(nil)
	_ bcc.BitAlgorithm = (*NeighborhoodBroadcast)(nil)
	_ bcc.Decider      = (*nbNode)(nil)
	_ bcc.Labeler      = (*nbNode)(nil)
	_ bcc.BitNode      = (*nbNode)(nil)
	_ bcc.BitReceiver  = (*nbNode)(nil)
)
