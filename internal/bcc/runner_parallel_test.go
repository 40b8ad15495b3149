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

// loopProbe is a run-bound BCC(1) algorithm whose nodes ride either
// medium and take concurrent delivery on both, so its runs shard
// whenever the threshold allows. Vertices listed in greedy broadcast
// two bits on the Message vector.
type loopProbe struct {
	plane  bool
	greedy map[int]bool
}

func (loopProbe) Name() string                       { return "loop-probe" }
func (loopProbe) Bandwidth() int                     { return 1 }
func (loopProbe) Rounds(int) int                     { return 3 }
func (p loopProbe) BitPlane() bool                   { return p.plane }
func (p loopProbe) BindRun(*Instance, int) Algorithm { return p }
func (p loopProbe) NewNode(view View, _ *Coin) Node  { return loopNode{greedy: p.greedy[view.ID]} }

type loopNode struct{ greedy bool }

func (n loopNode) Send(int) Message {
	if n.greedy {
		return Word(3, 2)
	}
	return Bit(1)
}
func (loopNode) Receive(int, []Message)              {}
func (loopNode) ReceiveSends(int, []Message)         {}
func (loopNode) BindPlane(int, []int) bool           { return true }
func (loopNode) SendBit(int) (uint8, bool)           { return 1, true }
func (loopNode) ReceiveBits(int, []uint64, []uint64) {}

// TestRunErrorPaths pins the round loop's one error exit on both media
// and both shard layouts: a ctx cancelled before round 1 returns
// context.Canceled and no Result, and on the Message vector a bandwidth
// violation names the same vertex sharded and unsharded. A clean traced
// run first checks that each case takes the medium and layout it names.
func TestRunErrorPaths(t *testing.T) {
	const n = 300 // two shards when sharded
	in, err := NewKT1(SequentialIDs(n), cycleInput(t, n))
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetLimit(3)
	defer parallel.SetLimit(0)
	defer SetIntraCellMinN(SetIntraCellMinN(0))
	layouts := []struct {
		name   string
		minN   int
		shards int
	}{{"one-shard", 1 << 30, 0}, {"sharded", 1, 2}}
	bandwidthErrs := make([]string, len(layouts))
	for li, layout := range layouts {
		SetIntraCellMinN(layout.minN)
		for _, plane := range []bool{false, true} {
			name := fmt.Sprintf("%s/plane=%v", layout.name, plane)
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
				a, ok := rec.Attr("shards")
				if got := int(a.Num); ok != (layout.shards > 0) || got != layout.shards {
					t.Fatalf("%s: rounds span shards attr = %v (present %v), want %d", name, got, ok, layout.shards)
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
		// Greedy vertices in both shards: the lowest one is reported.
		_, err := Run(in, loopProbe{greedy: map[int]bool{5: true, 290: true}})
		if err == nil {
			t.Fatalf("%s: over-budget broadcast succeeded", layout.name)
		}
		bandwidthErrs[li] = err.Error()
	}
	if bandwidthErrs[0] != bandwidthErrs[1] {
		t.Fatalf("bandwidth error differs:\none-shard: %s\nsharded:   %s", bandwidthErrs[0], bandwidthErrs[1])
	}
	if want := "vertex 5 broadcast 2 bits in round 1"; !strings.Contains(bandwidthErrs[0], want) {
		t.Fatalf("bandwidth error %q does not name %q", bandwidthErrs[0], want)
	}
	if got := IntraCellShardsInFlight(); got != 0 {
		t.Fatalf("%d shards still in flight after every run ended", got)
	}
}
