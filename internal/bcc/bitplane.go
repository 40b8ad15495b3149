package bcc

import (
	"fmt"
	"math/bits"
	"sync"
)

// The bit plane is the runner's word-packed medium for the model's
// native regime, BCC(1): every round is one trit per vertex ({0, 1, ⊥}),
// so a whole round fits in two n-bit bitsets —
//
//	value[v>>6] bit v&63 — the bit vertex v broadcast (0 if silent)
//	spoke[v>>6] bit v&63 — whether vertex v broadcast at all
//
// A broadcast is the same for every listener, so a bound run (see
// BoundRun) hears the round once, from these two words, instead of n
// permuted (n−1)-slot Message inboxes; the plane serves only bound
// runs. The per-round cost RoundBits[t] is a popcount over the spoke
// mask, and transcript mode packs the round's trits as 2-bit codes into
// one flat arena from which TritString / TranscriptKey are derived
// directly.
//
// The plane is one of the two media RunContext's single round loop
// drives (see medium in runner.go); it has no loop of its own. The
// Message vector remains authoritative: it serves every multi-bit or
// unbound algorithm and every WithReceivedTranscripts run, and acts as
// the equivalence oracle the bit plane is pinned against byte for byte
// (see bitplane_test.go and the protocol-level equivalence suite).

// BitNode is a plane node, the word-parallel counterpart of Node.Send.
// The runner calls BindPlane once before round 1, then SendBit instead
// of Send, unless the bound run writes the round itself (BitSender).
// Nodes must keep both consistent: the equivalence suite pins SendBit
// against Send trit by trit.
type BitNode interface {
	// BindPlane hands the node its simulation bookkeeping: self is the
	// node's plane index (= vertex index), and canonical reports the
	// instance's canonical ascending-ID wiring, where port p of self
	// leads to plane index p (p < self) or p+1, and plane indices
	// coincide with sorted-ID ranks. Any other wiring is the instance's
	// to answer (Instance.NeighborAt); the plane hands out no port
	// table. Returning false declines the binding (e.g. a rank-space
	// node handed a non-canonical plane) and sends the whole run down
	// the Message vector.
	BindPlane(self int, canonical bool) bool
	// SendBit is Send for the plane: the broadcast bit and whether the
	// node speaks at all this round (false is the paper's ⊥).
	SendBit(round int) (bit uint8, speak bool)
}

// BitHearer is BoundRun.Hear for the plane: a 1-bit bound run hears
// each round once, as the value/spoke words with every vertex's own
// bit present. The words are runner-owned and reused between rounds.
type BitHearer interface {
	HearBits(round int, value, spoke []uint64)
}

// BitSender is the send half of a bound run that can write a round's
// broadcasts itself. When the bound run implements it, the plane clears
// the round's words and calls SendBits once instead of every node's
// SendBit. The words take the layout HearBits reads: spoke bit v is set
// iff plane index v speaks, and value bit v is its bit (0 when silent).
// Every node has still accepted its binding, so the run knows what a
// plane index is; the nodes' SendBit remains the reference that
// SendBits must match bit for bit.
type BitSender interface {
	SendBits(round int, value, spoke []uint64)
}

// tritPlane is the packed transcript of a bit-plane run: one flat arena
// of 2-bit trit codes (tritZero/tritOne/tritSilent — the same codes
// TranscriptKey uses), vertex-major: the code of (v, round t) sits at
// 2-bit slot v*rounds + t−1.
type tritPlane struct {
	codes  []uint64
	rounds int
}

func newTritPlane(n, rounds int) *tritPlane {
	return &tritPlane{codes: make([]uint64, (n*rounds+31)/32), rounds: rounds}
}

func (tp *tritPlane) set(v, t int, code uint64) {
	i := v*tp.rounds + t - 1
	tp.codes[i>>5] |= code << uint(2*(i&31))
}

// record writes round t's codes from the round's finished words over n
// vertices: tritOne for a speaker's 1 and tritSilent for a silent
// vertex. tritZero is code 0, which the zero-initialized arena already
// holds.
func (tp *tritPlane) record(t, n int, value, spoke []uint64) {
	for wi, w := range spoke {
		ones, silent := value[wi], ^w
		if rest := n - wi<<6; rest < 64 {
			silent &= 1<<uint(rest) - 1
		}
		for ones != 0 {
			tp.set(wi<<6+bits.TrailingZeros64(ones), t, tritOne)
			ones &= ones - 1
		}
		for silent != 0 {
			tp.set(wi<<6+bits.TrailingZeros64(silent), t, tritSilent)
			silent &= silent - 1
		}
	}
}

func (tp *tritPlane) code(v, t int) uint64 {
	i := v*tp.rounds + t - 1
	return tp.codes[i>>5] >> uint(2*(i&31)) & 3
}

// message decodes one slot back into the Message the node's Send would
// have produced: Bit(0), Bit(1), or Silence.
func (tp *tritPlane) message(v, t int) Message {
	switch tp.code(v, t) {
	case tritZero:
		return Message{Bits: 0, Len: 1}
	case tritOne:
		return Message{Bits: 1, Len: 1}
	default:
		return Silence
	}
}

// tritString renders vertex v's broadcast sequence over {'0','1','_'} —
// the arena-direct counterpart of TritString(res.Transcripts[v].Sent).
func (tp *tritPlane) tritString(v int) string {
	b := make([]byte, tp.rounds)
	for t := 1; t <= tp.rounds; t++ {
		switch tp.code(v, t) {
		case tritZero:
			b[t-1] = '0'
		case tritOne:
			b[t-1] = '1'
		default:
			b[t-1] = '_'
		}
	}
	return string(b)
}

// tritKey packs vertex v's broadcast sequence into a TranscriptKey
// without routing through Messages. The arena's 2-bit codes are the
// key's own trit encoding, so this is a straight repack.
func (tp *tritPlane) tritKey(v int) (TranscriptKey, error) {
	var k TranscriptKey
	for t := 1; t <= tp.rounds; t++ {
		if err := k.push(tp.code(v, t)); err != nil {
			return TranscriptKey{}, fmt.Errorf("round %d: %w", t, err)
		}
	}
	return k, nil
}

// bitPlane is the medium of a 1-bit bound run: the round's broadcasts
// as the value/spoke word pair, plus the trit arena in transcript mode.
// Pooled like messageVector.
type bitPlane struct {
	nodes  []BitNode
	run    BitHearer
	sender BitSender // a bound run that writes each round's words itself
	value  []uint64
	spoke  []uint64
	trits  *tritPlane // nil under WithoutTranscripts
}

var planePool = sync.Pool{New: func() interface{} { return new(bitPlane) }}

// acquirePlane returns a pooled plane sized for n vertices.
func acquirePlane(n int) *bitPlane {
	p := planePool.Get().(*bitPlane)
	words := (n + 63) / 64
	if cap(p.nodes) < n {
		p.nodes = make([]BitNode, n)
	}
	if cap(p.value) < words {
		p.value = make([]uint64, words)
		p.spoke = make([]uint64, words)
	}
	p.nodes, p.value, p.spoke = p.nodes[:n], p.value[:words], p.spoke[:words]
	return p
}

// bind type-asserts the run onto the plane and binds every node. A run
// that cannot hear bits, a node that is not a BitNode, or a node that
// declines its binding sends the whole run down the Message vector.
func (p *bitPlane) bind(in *Instance, run BoundRun, nodes []Node, rounds int, o options) bool {
	h, ok := run.(BitHearer)
	if !ok {
		return false
	}
	p.run = h
	p.sender, _ = run.(BitSender)
	for v, node := range nodes {
		bn, ok := node.(BitNode)
		if !ok || !bn.BindPlane(v, in.canonical) {
			return false
		}
		p.nodes[v] = bn
	}
	if !o.noTranscripts {
		p.trits = newTritPlane(len(nodes), rounds)
	}
	return true
}

// send clears the plane words and fills them: from the bound run's
// SendBits when it has one, otherwise from every node's SendBit. Then
// it records the round's trits from the finished words and pops the
// round's bits out of the spoke words.
func (p *bitPlane) send(t int) (int, error) {
	value, spoke := p.value, p.spoke
	clear(value)
	clear(spoke)
	if p.sender != nil {
		p.sender.SendBits(t, value, spoke)
	} else {
		for v, node := range p.nodes {
			if bit, speak := node.SendBit(t); speak {
				w, m := v>>6, uint64(1)<<uint(v&63)
				spoke[w] |= m
				if bit&1 != 0 {
					value[w] |= m
				}
			}
		}
	}
	if p.trits != nil {
		p.trits.record(t, len(p.nodes), value, spoke)
	}
	rb := 0
	for _, w := range spoke {
		rb += bits.OnesCount64(w)
	}
	return rb, nil
}

func (p *bitPlane) deliver(t int) { p.run.HearBits(t, p.value, p.spoke) }

func (p *bitPlane) finish(res *Result) {
	res.BitPlane = true
	if p.trits != nil {
		materializeTrits(res, p.trits, len(p.nodes), res.Rounds)
	}
}

// release drops the run, its nodes and trit arena and pools the words.
func (p *bitPlane) release() {
	clear(p.nodes)
	p.run, p.sender, p.trits = nil, nil, nil
	planePool.Put(p)
}

// materializeTrits attaches the packed trit arena and rebuilds the Sent
// sequences from it, so every transcript consumer (crossing, PLS,
// reductions) sees the exact messages the generic path would have
// recorded.
func materializeTrits(res *Result, tp *tritPlane, n, rounds int) {
	res.trits = tp
	res.Transcripts = make([]Transcript, n)
	sentArena := make([]Message, n*rounds)
	for v := 0; v < n; v++ {
		sent := sentArena[v*rounds : (v+1)*rounds : (v+1)*rounds]
		for t := 1; t <= rounds; t++ {
			sent[t-1] = tp.message(v, t)
		}
		res.Transcripts[v].Sent = sent
	}
}
