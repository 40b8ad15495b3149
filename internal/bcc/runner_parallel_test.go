package bcc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bcclique/internal/obs"
	"bcclique/internal/parallel"
)

// TestDeliveryTableMatchesPortOf checks the invariant the runner's
// delivery loop relies on: the instance's port table is exactly the
// inverse of PortOf, including after crossings rewire ports.
func TestDeliveryTableMatchesPortOf(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := cycleInput(t, 8)
	in, err := NewKT0(SequentialIDs(8), g, RandomWiring(8, rng))
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		for v := 0; v < in.N(); v++ {
			for p, u := range in.ports[v] {
				if got := in.PortOf(v, u); got != p {
					t.Fatalf("delivery table says port %d of %d reaches %d, PortOf says %d", p, v, u, got)
				}
				if got := in.NeighborAt(v, p); got != u {
					t.Fatalf("NeighborAt(%d,%d) = %d, table says %d", v, p, got, u)
				}
			}
		}
	}
	check()
	if err := in.SwapPortTargets(2, 0, 3); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestRunRecordedTranscriptShapes checks the arena-backed transcripts:
// Sent has exactly `rounds` entries and Received rows are per-round
// snapshots that later rounds must not alias.
func TestRunRecordedTranscriptShapes(t *testing.T) {
	g := cycleInput(t, 6)
	in, err := NewKT1(SequentialIDs(6), g)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	res, err := Run(in, mixAlgo{rounds: rounds}, WithReceivedTranscripts())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if len(res.Transcripts[v].Sent) != rounds {
			t.Fatalf("vertex %d: %d sent entries, want %d", v, len(res.Transcripts[v].Sent), rounds)
		}
		if len(res.Transcripts[v].Received) != rounds {
			t.Fatalf("vertex %d: %d received rounds, want %d", v, len(res.Transcripts[v].Received), rounds)
		}
		for r := 0; r < rounds; r++ {
			for p := 0; p < 5; p++ {
				u := in.NeighborAt(v, p)
				want := res.Transcripts[u].Sent[r]
				if got := res.Transcripts[v].Received[r][p]; got != want {
					t.Fatalf("vertex %d round %d port %d: received %v, want %v (round snapshot aliased?)",
						v, r+1, p, got, want)
				}
			}
		}
	}
}

func TestEstimateErrorRejectsCallerCoin(t *testing.T) {
	g := cycleInput(t, 4)
	in, err := NewKT1(SequentialIDs(4), g)
	if err != nil {
		t.Fatal(err)
	}
	_, err = EstimateError(in, coinAlgo{rounds: 1}, VerdictYes, []int64{1, 2, 3}, WithCoin(NewCoin(9)))
	if err == nil {
		t.Fatal("EstimateError accepted a caller WithCoin, which silently overrides per-seed coins")
	}
	if !strings.Contains(err.Error(), "WithCoin") {
		t.Errorf("error %q should name the conflicting option", err)
	}
}

// flipDecider answers YES iff the first public-coin bit is 1, so its
// empirical error depends on every individual seed — any cross-seed coin
// mixup shifts the estimate.
type flipDecider struct{}

func (flipDecider) Name() string   { return "flip" }
func (flipDecider) Bandwidth() int { return 1 }
func (flipDecider) Rounds(int) int { return 0 }
func (flipDecider) NewNode(_ View, coin *Coin) Node {
	return flipNode{yes: coin.Reader().Int63()&1 == 1}
}

type flipNode struct{ yes bool }

func (flipNode) Send(int) Message       { return Silence }
func (flipNode) Receive(int, []Message) {}
func (n flipNode) Decide() Verdict {
	if n.yes {
		return VerdictYes
	}
	return VerdictNo
}

func TestEstimateErrorParallelMatchesSequential(t *testing.T) {
	defer parallel.SetLimit(0)
	g := cycleInput(t, 5)
	in, err := NewKT1(SequentialIDs(5), g)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]int64, 64)
	for i := range seeds {
		seeds[i] = int64(i) * 7
	}
	parallel.SetLimit(1)
	seq, err := EstimateError(in, flipDecider{}, VerdictYes, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		parallel.SetLimit(workers)
		par, err := EstimateError(in, flipDecider{}, VerdictYes, seeds)
		if err != nil {
			t.Fatal(err)
		}
		if par != seq {
			t.Fatalf("workers=%d: estimate %v != sequential %v", workers, par, seq)
		}
	}
	if seq == 0 || seq == 1 {
		t.Errorf("flip decider error = %v over 64 seeds; want a seed-dependent mix", seq)
	}
}

// loopProbe is a run-bound BCC(1) algorithm that rides either medium,
// hearing each round itself. Vertices listed in greedy broadcast two
// bits on the Message vector.
type loopProbe struct {
	plane  bool
	greedy map[int]bool
}

var _ RunBinder = loopProbe{}

func (loopProbe) Name() string                      { return "loop-probe" }
func (loopProbe) Bandwidth() int                    { return 1 }
func (loopProbe) Rounds(int) int                    { return 3 }
func (p loopProbe) BitPlane() bool                  { return p.plane }
func (p loopProbe) BindRun(*Instance, int) BoundRun { return p }
func (p loopProbe) NewNode(view View, _ *Coin) Node { return loopNode{greedy: p.greedy[view.ID]} }
func (loopProbe) Hear(int, []Message)               {}
func (loopProbe) HearBits(int, []uint64, []uint64)  {}
func (loopProbe) ReleaseRun()                       {}

type loopNode struct{ greedy bool }

func (n loopNode) Send(int) Message {
	if n.greedy {
		return Word(3, 2)
	}
	return Bit(1)
}
func (loopNode) Receive(int, []Message)    {}
func (loopNode) BindPlane(int, bool) bool  { return true }
func (loopNode) SendBit(int) (uint8, bool) { return 1, true }

// TestRunErrorPaths pins the round loop's one error exit on both media:
// a ctx cancelled before round 1 returns context.Canceled and no
// Result, and on the Message vector a bandwidth violation names the
// lowest offending vertex. A clean traced run first checks that each
// case takes the medium it names.
func TestRunErrorPaths(t *testing.T) {
	const n = 300
	in, err := NewKT1(SequentialIDs(n), cycleInput(t, n))
	if err != nil {
		t.Fatal(err)
	}
	for _, plane := range []bool{false, true} {
		name := fmt.Sprintf("plane=%v", plane)
		algo := loopProbe{plane: plane}

		tr := obs.New(64)
		ctx, root := tr.Root(context.Background(), "run", name)
		res, err := RunContext(ctx, in, algo)
		root.End()
		if err != nil {
			t.Fatalf("%s: clean run: %v", name, err)
		}
		if res.BitPlane != plane {
			t.Fatalf("%s: BitPlane = %v", name, res.BitPlane)
		}
		found := false
		for _, rec := range tr.Trace(name) {
			if rec.Name != "rounds" {
				continue
			}
			found = true
			if _, ok := rec.Attr("bit_plane"); ok != plane {
				t.Fatalf("%s: rounds span bit_plane attr present = %v", name, ok)
			}
		}
		if !found {
			t.Fatalf("%s: no rounds span recorded", name)
		}

		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		res, err = RunContext(cancelled, in, algo)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("%s: cancelled run returned (%v, %v), want (nil, context.Canceled)", name, res, err)
		}
	}
	_, err = Run(in, loopProbe{greedy: map[int]bool{5: true, 290: true}})
	if err == nil {
		t.Fatal("over-budget broadcast succeeded")
	}
	if want := "vertex 5 broadcast 2 bits in round 1"; !strings.Contains(err.Error(), want) {
		t.Fatalf("bandwidth error %q does not name %q", err, want)
	}
}

// hearProbe is a bound BCC(1) run that logs what the round loop does
// to it. Its nodes count their sends and receives, and each send checks
// that the previous round was already heard; the run records every
// round it hears, with the send count at that moment and whether the
// broadcasts it heard match hearMsg. It rides either medium.
type hearProbe struct {
	plane     bool
	n         int
	sends     int64
	receives  int64
	early     int64 // sends of round t made before round t−1 was heard
	lastHeard int
	heard     []hearing
}

type hearing struct {
	round int
	sends int64 // node sends counted when the round was heard
	bits  bool  // heard through HearBits
	ok    bool  // the heard broadcasts are every vertex's hearMsg
}

var _ RunBinder = (*hearProbe)(nil)

// hearMsg is vertex v's round-t broadcast: a mix of 0, 1 and silence.
func hearMsg(v, t int) Message {
	switch (7*v + t) % 3 {
	case 0:
		return Bit(0)
	case 1:
		return Bit(1)
	}
	return Silence
}

// heardWords reports whether value/spoke carry every vertex's hearMsg
// for round t.
func heardWords(n, t int, value, spoke []uint64) bool {
	for u := 0; u < n; u++ {
		m := hearMsg(u, t)
		w, bit := u>>6, uint(u&63)
		if spoke[w]>>bit&1 != uint64(m.Len) || value[w]>>bit&1 != m.Bits {
			return false
		}
	}
	return true
}

func (p *hearProbe) Name() string                    { return "hear-probe" }
func (p *hearProbe) Bandwidth() int                  { return 1 }
func (p *hearProbe) Rounds(int) int                  { return 5 }
func (p *hearProbe) BitPlane() bool                  { return p.plane }
func (p *hearProbe) BindRun(*Instance, int) BoundRun { return p }
func (p *hearProbe) NewNode(view View, _ *Coin) Node { return hearNode{p: p, v: view.ID} }
func (p *hearProbe) ReleaseRun()                     {}

func (p *hearProbe) Hear(t int, sends []Message) {
	ok := len(sends) == p.n
	for u, m := range sends {
		ok = ok && m == hearMsg(u, t)
	}
	p.record(t, false, ok)
}

func (p *hearProbe) HearBits(t int, value, spoke []uint64) {
	p.record(t, true, heardWords(p.n, t, value, spoke))
}

func (p *hearProbe) record(t int, bits, ok bool) {
	p.heard = append(p.heard, hearing{round: t, sends: p.sends, bits: bits, ok: ok})
	p.lastHeard = t
}

// hearNode is vertex v of a hearProbe run; the vertex index is its ID
// under SequentialIDs.
type hearNode struct {
	p *hearProbe
	v int
}

func (n hearNode) send(t int) Message {
	if n.p.lastHeard != t-1 {
		n.p.early++
	}
	n.p.sends++
	return hearMsg(n.v, t)
}

func (n hearNode) Send(t int) Message { return n.send(t) }
func (n hearNode) SendBit(t int) (uint8, bool) {
	m := n.send(t)
	return uint8(m.Bits), m.Len != 0
}
func (hearNode) BindPlane(int, bool) bool              { return true }
func (n hearNode) Receive(int, []Message)              { n.p.receives++ }
func (n hearNode) ReceiveBits(int, []uint64, []uint64) { n.p.receives++ }

// TestBoundRunHearsOncePerRound pins the BoundRun contract on both
// media, and on a received-transcript run: the run hears rounds 1..R
// exactly once each, in order; when it hears round t all n·t sends of
// rounds 1..t have happened and none of round t+1; the broadcasts it
// hears are the ones sent; no node receives anything; and every
// recorded inbox slot is the Sent entry of the vertex behind that port.
// The wiring is a rotation, so ports and vertices differ.
func TestBoundRunHearsOncePerRound(t *testing.T) {
	const n = 300
	in, err := NewKT0(SequentialIDs(n), cycleInput(t, n), RotationWiring(n))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name            string
		plane, received bool
	}{{"vector", false, false}, {"plane", true, false}, {"vector-received", false, true}}
	for _, c := range cases {
		name := c.name
		probe := &hearProbe{plane: c.plane, n: n}
		var opts []Option
		if c.received {
			opts = append(opts, WithReceivedTranscripts())
		}
		res, err := Run(in, probe, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.BitPlane != c.plane {
			t.Fatalf("%s: BitPlane = %v", name, res.BitPlane)
		}
		if len(probe.heard) != res.Rounds {
			t.Fatalf("%s: heard %d rounds, want %d", name, len(probe.heard), res.Rounds)
		}
		for i, h := range probe.heard {
			if want := i + 1; h.round != want {
				t.Fatalf("%s: hearing %d was round %d, want %d", name, i, h.round, want)
			}
			if want := int64(n * h.round); h.sends != want {
				t.Fatalf("%s: round %d heard after %d sends, want %d", name, h.round, h.sends, want)
			}
			if h.bits != c.plane {
				t.Fatalf("%s: round %d heard through HearBits = %v", name, h.round, h.bits)
			}
			if !h.ok {
				t.Fatalf("%s: round %d heard broadcasts that were not sent", name, h.round)
			}
		}
		if probe.early != 0 {
			t.Fatalf("%s: %d sends ran before the previous round was heard", name, probe.early)
		}
		if probe.receives != 0 {
			t.Fatalf("%s: nodes of a bound run received %d times", name, probe.receives)
		}
		if !c.received {
			continue
		}
		for v := 0; v < n; v++ {
			for r := 0; r < res.Rounds; r++ {
				for p, got := range res.Transcripts[v].Received[r] {
					u := in.NeighborAt(v, p)
					if want := res.Transcripts[u].Sent[r]; got != want {
						t.Fatalf("%s: vertex %d round %d port %d received %v, vertex %d sent %v", name, v, r+1, p, got, u, want)
					}
				}
			}
		}
	}
}

// senderProbe is a bound BCC(1) run that writes every round's plane
// words itself (BitSender): vertex v broadcasts hearMsg(v, t). Its
// nodes fail the test if the plane asks them for a bit.
type senderProbe struct {
	t     *testing.T
	n     int
	heard int // rounds whose words matched hearMsg when heard
}

var (
	_ RunBinder = (*senderProbe)(nil)
	_ BitSender = (*senderProbe)(nil)
)

func (p *senderProbe) Name() string                    { return "sender-probe" }
func (p *senderProbe) Bandwidth() int                  { return 1 }
func (p *senderProbe) Rounds(int) int                  { return 7 }
func (p *senderProbe) BitPlane() bool                  { return true }
func (p *senderProbe) BindRun(*Instance, int) BoundRun { return p }
func (p *senderProbe) NewNode(View, *Coin) Node        { return senderNode{p.t} }
func (p *senderProbe) Hear(int, []Message)             { p.t.Error("a plane run heard the Message vector") }
func (p *senderProbe) ReleaseRun()                     {}

func (p *senderProbe) SendBits(t int, value, spoke []uint64) {
	for v := 0; v < p.n; v++ {
		if m := hearMsg(v, t); m.Len != 0 {
			spoke[v>>6] |= 1 << uint(v&63)
			value[v>>6] |= m.Bits << uint(v&63)
		}
	}
}

func (p *senderProbe) HearBits(t int, value, spoke []uint64) {
	if heardWords(p.n, t, value, spoke) {
		p.heard++
	}
}

type senderNode struct{ t *testing.T }

func (senderNode) Send(int) Message         { return Silence }
func (senderNode) Receive(int, []Message)   {}
func (senderNode) BindPlane(int, bool) bool { return true }
func (n senderNode) SendBit(int) (uint8, bool) {
	n.t.Error("the plane called SendBit on a BitSender run")
	return 0, false
}

// TestBitSenderWritesTheRound pins the plane's BitSender path with and
// without transcripts: the run's SendBits replaces every node's
// SendBit, the run hears exactly the words it wrote, and RoundBits and
// the trit transcripts are taken from those words.
func TestBitSenderWritesTheRound(t *testing.T) {
	const n = 130 // just over two plane words
	in, err := NewKT1(SequentialIDs(n), cycleInput(t, n))
	if err != nil {
		t.Fatal(err)
	}
	for _, transcripts := range []bool{true, false} {
		probe := &senderProbe{t: t, n: n}
		var opts []Option
		if !transcripts {
			opts = append(opts, WithoutTranscripts())
		}
		res, err := Run(in, probe, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !res.BitPlane {
			t.Fatalf("transcripts=%v: the probe did not ride the plane", transcripts)
		}
		if probe.heard != res.Rounds {
			t.Fatalf("transcripts=%v: %d of %d rounds heard the words SendBits wrote", transcripts, probe.heard, res.Rounds)
		}
		labels, err := SentTritLabels(res)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if transcripts {
			want = n
		}
		if len(labels) != want {
			t.Fatalf("transcripts=%v: %d trit labels, want %d", transcripts, len(labels), want)
		}
		for r := 1; r <= res.Rounds; r++ {
			bits := 0
			for v := 0; v < n; v++ {
				m := hearMsg(v, r)
				bits += int(m.Len)
				if len(labels) == 0 {
					continue
				}
				trit := byte('_')
				if m.Len != 0 {
					trit = '0' + byte(m.Bits)
				}
				if got := labels[v][r-1]; got != trit {
					t.Fatalf("vertex %d round %d: trit %q, want %q", v, r, got, trit)
				}
			}
			if res.RoundBits[r-1] != bits {
				t.Fatalf("transcripts=%v: round %d bits %d, want %d", transcripts, r, res.RoundBits[r-1], bits)
			}
		}
	}
}
