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
// BoundRun) writes the round into these two words itself and hears it
// back once, instead of n Message sends and n permuted (n−1)-slot
// inboxes; the plane serves only bound runs and never calls a node.
// The per-round cost RoundBits[t] is a popcount over the spoke mask,
// and transcript mode packs the round's trits as 2-bit codes into one
// flat arena from which TritString / TranscriptKey are derived
// directly.
//
// The plane is one of the two media RunContext's single round loop
// drives (see medium in runner.go); it has no loop of its own. The
// Message vector remains authoritative: it serves every multi-bit or
// unbound algorithm and every WithReceivedTranscripts run, and acts as
// the equivalence oracle the bit plane is pinned against byte for byte
// (see bitplane_test.go and the protocol-level equivalence suite).

// BitRun is a 1-bit bound run that rides the bit plane: it writes each
// round's broadcasts into the plane words and hears them back, on
// behalf of all its nodes. The plane engages on a bound run at
// bandwidth 1 that implements BitRun and accepts BindPlane.
type BitRun interface {
	// BindPlane is called once, after every node is built and before
	// round 1. canonical reports the instance's canonical ascending-ID
	// wiring, where vertex indices coincide with sorted-ID ranks; the
	// plane hands out no port table, and any other wiring is the
	// instance's to answer (Instance.NeighborAt). Returning false
	// declines the plane (e.g. a run that writes and hears in rank
	// space, handed a non-canonical wiring) and sends the run down the
	// Message vector.
	BindPlane(canonical bool) bool
	// SendBits writes round t's broadcasts into the cleared words:
	// spoke bit v is set iff vertex v speaks, and value bit v is its
	// bit (0 when silent). The nodes' Send stays the reference that
	// SendBits must match bit for bit.
	SendBits(round int, value, spoke []uint64)
	// HearBits is BoundRun.Hear for the plane: the run hears each
	// round once, as the words SendBits wrote, with every vertex's own
	// bit present. The words are runner-owned and reused between
	// rounds.
	HearBits(round int, value, spoke []uint64)
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
	run   BitRun
	n     int
	value []uint64
	spoke []uint64
	trits *tritPlane // nil under WithoutTranscripts
}

var planePool = sync.Pool{New: func() interface{} { return new(bitPlane) }}

// acquirePlane returns a pooled plane sized for the run's n vertices,
// with a trit arena unless the run records no transcripts.
func acquirePlane(run BitRun, n, rounds int, o options) *bitPlane {
	p := planePool.Get().(*bitPlane)
	words := (n + 63) / 64
	if cap(p.value) < words {
		p.value = make([]uint64, words)
		p.spoke = make([]uint64, words)
	}
	p.run, p.n, p.value, p.spoke = run, n, p.value[:words], p.spoke[:words]
	if !o.noTranscripts {
		p.trits = newTritPlane(n, rounds)
	}
	return p
}

// send clears the plane words and has the run write the round into
// them. Then it records the round's trits from the finished words and
// pops the round's bits out of the spoke words.
func (p *bitPlane) send(t int) (int, error) {
	value, spoke := p.value, p.spoke
	clear(value)
	clear(spoke)
	p.run.SendBits(t, value, spoke)
	if p.trits != nil {
		p.trits.record(t, p.n, value, spoke)
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
		materializeTrits(res, p.trits, p.n, res.Rounds)
	}
}

// release drops the run and its trit arena and pools the words.
func (p *bitPlane) release() {
	p.run, p.trits = nil, nil
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
