package bcc

import (
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
// and in transcript mode every vertex's Sent entry is written straight
// from the finished words.
//
// The plane is one of the two media RunContext's single round loop
// drives (see medium in runner.go); it has no loop of its own. The
// Message vector remains authoritative: it serves every multi-bit or
// unbound algorithm and every declined binding, and acts as the
// equivalence oracle the bit plane is pinned against byte for byte
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

// bitPlane is the medium of a 1-bit bound run: the round's broadcasts
// as the value/spoke word pair, and the Sent transcripts it writes from
// them. Pooled like messageVector.
type bitPlane struct {
	run         BitRun
	value       []uint64
	spoke       []uint64
	transcripts []Transcript // nil under WithoutTranscripts
}

var planePool = sync.Pool{New: func() interface{} { return new(bitPlane) }}

// acquirePlane returns a pooled plane sized for the run's n vertices,
// bound to the run's transcripts.
func acquirePlane(run BitRun, n int, transcripts []Transcript) *bitPlane {
	p := planePool.Get().(*bitPlane)
	words := (n + 63) / 64
	if cap(p.value) < words {
		p.value = make([]uint64, words)
		p.spoke = make([]uint64, words)
	}
	p.run, p.value, p.spoke, p.transcripts = run, p.value[:words], p.spoke[:words], transcripts
	return p
}

// send clears the plane words and has the run write the round into
// them. Then it writes every vertex's Sent entry (⊥, 0 or 1) from the
// finished words and pops the round's bits out of the spoke words.
func (p *bitPlane) send(t int) (int, error) {
	value, spoke := p.value, p.spoke
	clear(value)
	clear(spoke)
	p.run.SendBits(t, value, spoke)
	for v := range p.transcripts {
		m := Silence
		if w, bit := v>>6, uint(v&63); spoke[w]>>bit&1 != 0 {
			m = Bit(uint8(value[w] >> bit))
		}
		p.transcripts[v].Sent[t-1] = m
	}
	rb := 0
	for _, w := range spoke {
		rb += bits.OnesCount64(w)
	}
	return rb, nil
}

func (p *bitPlane) deliver(t int) { p.run.HearBits(t, p.value, p.spoke) }

// release drops the run and its transcripts and pools the words.
func (p *bitPlane) release() {
	p.run, p.transcripts = nil, nil
	planePool.Put(p)
}
