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
// Sent has exactly `rounds` entries, and each entry is the vertex's own
// broadcast, so no vertex's slice of the arena aliases another's.
func TestRunRecordedTranscriptShapes(t *testing.T) {
	g := cycleInput(t, 6)
	in, err := NewKT1(SequentialIDs(6), g)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	res, err := Run(in, mixAlgo{rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if len(res.Transcripts[v].Sent) != rounds {
			t.Fatalf("vertex %d: %d sent entries, want %d", v, len(res.Transcripts[v].Sent), rounds)
		}
		for r := 0; r < rounds; r++ {
			if got, want := res.Transcripts[v].Sent[r], (mixNode{id: v}).Send(r+1); got != want {
				t.Fatalf("vertex %d round %d: sent %v, want %v", v, r+1, got, want)
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

// loopProbe is a run-bound BCC(1) algorithm that rides either medium
// (WithoutBitPlane picks the vector), hearing each round itself; on the
// plane every vertex sends 1. Vertices listed in greedy broadcast two
// bits on the Message vector.
type loopProbe struct {
	greedy map[int]bool
	n      int
}

var (
	_ RunBinder = loopProbe{}
	_ BitRun    = loopProbe{}
)

func (loopProbe) Name() string                           { return "loop-probe" }
func (loopProbe) Bandwidth() int                         { return 1 }
func (loopProbe) Rounds(int) int                         { return 3 }
func (p loopProbe) BindRun(in *Instance, _ int) BoundRun { p.n = in.N(); return p }
func (p loopProbe) NewNode(view View, _ *Coin) Node      { return loopNode{greedy: p.greedy[view.ID]} }
func (loopProbe) Hear(int, []Message)                    {}
func (loopProbe) BindPlane(bool) bool                    { return true }
func (loopProbe) HearBits(int, []uint64, []uint64)       {}
func (loopProbe) ReleaseRun()                            {}

func (p loopProbe) SendBits(_ int, value, spoke []uint64) {
	for v := 0; v < p.n; v++ {
		value[v>>6] |= 1 << uint(v&63)
		spoke[v>>6] |= 1 << uint(v&63)
	}
}

type loopNode struct{ greedy bool }

func (n loopNode) Send(int) Message {
	if n.greedy {
		return Word(3, 2)
	}
	return Bit(1)
}
func (loopNode) Receive(int, []Message) {}

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
		algo := loopProbe{}
		var opts []Option
		if !plane {
			opts = append(opts, WithoutBitPlane())
		}

		tr := obs.New(64)
		ctx, root := tr.Root(context.Background(), "run", name)
		res, err := RunContext(ctx, in, algo, opts...)
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
		res, err = RunContext(cancelled, in, algo, opts...)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("%s: cancelled run returned (%v, %v), want (nil, context.Canceled)", name, res, err)
		}
	}
	_, err = Run(in, loopProbe{greedy: map[int]bool{5: true, 290: true}}, WithoutBitPlane())
	if err == nil {
		t.Fatal("over-budget broadcast succeeded")
	}
	if want := "vertex 5 broadcast 2 bits in round 1"; !strings.Contains(err.Error(), want) {
		t.Fatalf("bandwidth error %q does not name %q", err, want)
	}
}

// hearProbe is a bound BCC(1) run that logs what the round loop does
// to it. Its nodes count their sends and receives, and each send checks
// that the previous round was already heard; on the plane the run's
// SendBits makes every vertex's send itself, counted the same way. The
// run records every round it hears, with the send count at that moment
// and whether the broadcasts it heard match hearMsg. It rides either
// medium (WithoutBitPlane picks the vector).
type hearProbe struct {
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

var (
	_ RunBinder = (*hearProbe)(nil)
	_ BitRun    = (*hearProbe)(nil)
)

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

func (p *hearProbe) BindPlane(bool) bool { return true }

func (p *hearProbe) SendBits(t int, value, spoke []uint64) {
	for v := 0; v < p.n; v++ {
		m := hearNode{p: p, v: v}.send(t)
		spoke[v>>6] |= uint64(m.Len) << uint(v&63)
		value[v>>6] |= m.Bits << uint(v&63)
	}
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

func (n hearNode) Send(t int) Message     { return n.send(t) }
func (n hearNode) Receive(int, []Message) { n.p.receives++ }

// TestBoundRunHearsOncePerRound pins the BoundRun contract on both
// media, with and without transcripts: the run hears rounds 1..R
// exactly once each, in order; when it hears round t all n·t sends of
// rounds 1..t have happened (on the plane, all made by the run's
// SendBits) and none of round t+1; the broadcasts it hears are the ones
// sent; no node receives anything; and RoundBits and the trit
// transcripts are the sent broadcasts. The wiring is a rotation, so
// ports and vertices differ.
func TestBoundRunHearsOncePerRound(t *testing.T) {
	const n = 300
	in, err := NewKT0(SequentialIDs(n), cycleInput(t, n), RotationWiring(n))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name                 string
		plane, noTranscripts bool
	}{
		{"vector", false, false},
		{"plane", true, false},
		{"plane-without-transcripts", true, true},
	}
	for _, c := range cases {
		name := c.name
		probe := &hearProbe{n: n}
		var opts []Option
		if !c.plane {
			opts = append(opts, WithoutBitPlane())
		}
		if c.noTranscripts {
			opts = append(opts, WithoutTranscripts())
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
		checkSentBits(t, name, res, n, !c.noTranscripts)
	}
}

// checkSentBits checks that res's RoundBits, and its trit labels when
// the run kept transcripts, are every vertex's hearMsg.
func checkSentBits(t *testing.T, name string, res *Result, n int, transcripts bool) {
	t.Helper()
	labels, err := SentTritLabels(res)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	if transcripts {
		want = n
	}
	if len(labels) != want {
		t.Fatalf("%s: %d trit labels, want %d", name, len(labels), want)
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
				t.Fatalf("%s: vertex %d round %d: trit %q, want %q", name, v, r, got, trit)
			}
		}
		if res.RoundBits[r-1] != bits {
			t.Fatalf("%s: round %d bits %d, want %d", name, r, res.RoundBits[r-1], bits)
		}
	}
}

// senderProbe is a plane run that writes its rounds' words without its
// nodes: vertex v broadcasts hearMsg(v, t). Its nodes fail the test if
// anything asks them to send, and it records the wiring BindPlane saw.
type senderProbe struct {
	t         *testing.T
	n         int
	canonical bool
	heard     int // rounds whose words matched hearMsg when heard
}

var (
	_ RunBinder = (*senderProbe)(nil)
	_ BitRun    = (*senderProbe)(nil)
)

func (p *senderProbe) Name() string                    { return "sender-probe" }
func (p *senderProbe) Bandwidth() int                  { return 1 }
func (p *senderProbe) Rounds(int) int                  { return 7 }
func (p *senderProbe) BindRun(*Instance, int) BoundRun { return p }
func (p *senderProbe) NewNode(View, *Coin) Node        { return senderNode{p.t} }
func (p *senderProbe) Hear(int, []Message)             { p.t.Error("a plane run heard the Message vector") }
func (p *senderProbe) ReleaseRun()                     {}

func (p *senderProbe) BindPlane(canonical bool) bool {
	p.canonical = canonical
	return true
}

func (p *senderProbe) SendBits(t int, value, spoke []uint64) {
	for v := 0; v < p.n; v++ {
		m := hearMsg(v, t)
		spoke[v>>6] |= uint64(m.Len) << uint(v&63)
		value[v>>6] |= m.Bits << uint(v&63)
	}
}

func (p *senderProbe) HearBits(t int, value, spoke []uint64) {
	if heardWords(p.n, t, value, spoke) {
		p.heard++
	}
}

type senderNode struct{ t *testing.T }

func (n senderNode) Send(int) Message {
	n.t.Error("the plane asked a node to send")
	return Silence
}

func (senderNode) Receive(int, []Message) {}

// TestBitSenderWritesTheRound pins the plane's send path on a canonical
// KT-1 instance, with and without transcripts: BindPlane is told the
// wiring is canonical, the run's SendBits writes every round and no
// node is asked to send, the run hears exactly the words it wrote, and
// RoundBits and the trit transcripts are taken from those words.
func TestBitSenderWritesTheRound(t *testing.T) {
	const n = 130 // just over two plane words
	in, err := NewKT1(SequentialIDs(n), cycleInput(t, n))
	if err != nil {
		t.Fatal(err)
	}
	for _, transcripts := range []bool{true, false} {
		name := fmt.Sprintf("transcripts=%v", transcripts)
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
			t.Fatalf("%s: the probe did not ride the plane", name)
		}
		if !probe.canonical {
			t.Fatalf("%s: BindPlane was told a canonical KT-1 wiring is not canonical", name)
		}
		if probe.heard != res.Rounds {
			t.Fatalf("%s: %d of %d rounds heard the words SendBits wrote", name, probe.heard, res.Rounds)
		}
		checkSentBits(t, name, res, n, transcripts)
	}
}
