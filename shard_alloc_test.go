package bcclique_test

import (
	"testing"

	"bcclique/internal/bcc"
	"bcclique/internal/graph"
	"bcclique/internal/parallel"
)

// shardLoopProbe is an inert run-bound BCC(2) algorithm with
// preallocated nodes: binding it opts a run into the intra-cell
// replica-parallel loop, and the run hears the raw broadcast vector, so
// a Run's allocations are exactly the sharded generic round loop's own.
// Bandwidth 2 keeps it off the bit plane.
type shardLoopProbe struct {
	rounds int
	nodes  []bcc.Node
	next   int
}

var _ bcc.RunBinder = (*shardLoopProbe)(nil)

func (p *shardLoopProbe) Name() string   { return "shard-loop-probe" }
func (p *shardLoopProbe) Bandwidth() int { return 2 }
func (p *shardLoopProbe) Rounds(int) int { return p.rounds }
func (p *shardLoopProbe) BindRun(*bcc.Instance, int) bcc.BoundRun {
	p.next = 0
	return p
}
func (p *shardLoopProbe) NewNode(bcc.View, *bcc.Coin) bcc.Node {
	n := p.nodes[p.next]
	p.next = (p.next + 1) % len(p.nodes)
	return n
}
func (p *shardLoopProbe) Hear(int, []bcc.Message) {}
func (p *shardLoopProbe) ReleaseRun()             {}

type shardLoopNode struct{}

func (shardLoopNode) Send(int) bcc.Message       { return bcc.Word(2, 2) }
func (shardLoopNode) Receive(int, []bcc.Message) {}

// mallocShardNode is an inert BCC(2) node that drives a mallocProbe.
type mallocShardNode struct{ p *mallocProbe }

func (n mallocShardNode) Send(t int) bcc.Message {
	n.p.observe(t)
	return bcc.Word(2, 2)
}
func (mallocShardNode) Receive(int, []bcc.Message) {}

// TestShardedRoundLoopAllocationFree pins the intra-cell parallel
// loop's 0-allocs steady-state contract, the sharded sibling of
// TestBitPlaneRoundLoopAllocationFree: with node construction amortized
// and worker sharding forced on, no allocation happens per round or
// per phase between round 2 and the last round, and a run's allocation
// count is a small constant — the per-run shard group, phase closures,
// and parked workers are the only overhead.
func TestShardedRoundLoopAllocationFree(t *testing.T) {
	const n = 640 // 3 shards of 256: cursor contention plus a ragged tail
	g := graph.New(n)
	in, err := bcc.NewKT1(bcc.SequentialIDs(n), g)
	if err != nil {
		t.Fatal(err)
	}
	prev := bcc.SetIntraCellMinN(1)
	defer bcc.SetIntraCellMinN(prev)
	parallel.SetLimit(3)
	defer parallel.SetLimit(0)
	allocsAt := func(rounds int) float64 {
		probe := &shardLoopProbe{rounds: rounds, nodes: make([]bcc.Node, n)}
		for i := range probe.nodes {
			probe.nodes[i] = shardLoopNode{}
		}
		// Warm the arena pools before measuring.
		res, err := bcc.Run(in, probe, bcc.WithoutTranscripts())
		if err != nil {
			t.Fatal(err)
		}
		bcc.Recycle(res)
		return testing.AllocsPerRun(10, func() {
			res, err := bcc.Run(in, probe, bcc.WithoutTranscripts())
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalBits != 2*n*rounds {
				t.Fatalf("probe run broadcast %d bits, want %d", res.TotalBits, 2*n*rounds)
			}
			bcc.Recycle(res)
		})
	}
	const rounds = 4096
	perRun := allocsAt(rounds)
	probe := &mallocProbe{last: rounds}
	loop := &shardLoopProbe{rounds: rounds, nodes: make([]bcc.Node, n)}
	for i := range loop.nodes {
		loop.nodes[i] = shardLoopNode{}
	}
	loop.nodes[0] = mallocShardNode{probe}
	probe.check(t, func() {
		res, err := bcc.Run(in, loop, bcc.WithoutTranscripts())
		if err != nil {
			t.Fatal(err)
		}
		bcc.Recycle(res)
	})
	// The constant is the per-run overhead: shard group + parked
	// workers + phase closures + node tables. A per-round
	// or per-phase regression would add thousands.
	if perRun > 48 {
		t.Errorf("per-run allocation constant is %.1f, want a small constant", perRun)
	}
}
