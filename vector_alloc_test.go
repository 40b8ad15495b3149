package bcclique_test

import (
	"testing"

	"bcclique/internal/bcc"
	"bcclique/internal/graph"
)

// vectorLoopProbe is an inert run-bound BCC(2) algorithm with
// preallocated nodes: the run hears the raw broadcast vector, so a
// Run's allocations are exactly the bound Message-vector round loop's
// own. Bandwidth 2 keeps it off the bit plane.
type vectorLoopProbe struct {
	rounds int
	nodes  []bcc.Node
	next   int
}

var _ bcc.RunBinder = (*vectorLoopProbe)(nil)

func (p *vectorLoopProbe) Name() string   { return "vector-loop-probe" }
func (p *vectorLoopProbe) Bandwidth() int { return 2 }
func (p *vectorLoopProbe) Rounds(int) int { return p.rounds }
func (p *vectorLoopProbe) BindRun(*bcc.Instance, int) bcc.BoundRun {
	p.next = 0
	return p
}
func (p *vectorLoopProbe) NewNode(bcc.View, *bcc.Coin) bcc.Node {
	n := p.nodes[p.next]
	p.next = (p.next + 1) % len(p.nodes)
	return n
}
func (p *vectorLoopProbe) Hear(int, []bcc.Message) {}
func (p *vectorLoopProbe) ReleaseRun()             {}

type vectorLoopNode struct{}

func (vectorLoopNode) Send(int) bcc.Message       { return bcc.Word(2, 2) }
func (vectorLoopNode) Receive(int, []bcc.Message) {}

// mallocVectorNode is an inert BCC(2) node that drives a mallocProbe.
type mallocVectorNode struct{ p *mallocProbe }

func (n mallocVectorNode) Send(t int) bcc.Message {
	n.p.observe(t)
	return bcc.Word(2, 2)
}
func (mallocVectorNode) Receive(int, []bcc.Message) {}

// TestBoundVectorRoundLoopAllocationFree pins the bound Message-vector
// loop's 0-allocs steady-state contract, the sibling of
// TestBitPlaneRoundLoopAllocationFree: with node construction amortized,
// no allocation happens per round between round 2 and the last round,
// and a run's allocation count is a small constant.
func TestBoundVectorRoundLoopAllocationFree(t *testing.T) {
	const n = 640
	g := graph.New(n)
	in, err := bcc.NewKT1(bcc.SequentialIDs(n), g)
	if err != nil {
		t.Fatal(err)
	}
	allocsAt := func(rounds int) float64 {
		probe := &vectorLoopProbe{rounds: rounds, nodes: make([]bcc.Node, n)}
		for i := range probe.nodes {
			probe.nodes[i] = vectorLoopNode{}
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
	loop := &vectorLoopProbe{rounds: rounds, nodes: make([]bcc.Node, n)}
	for i := range loop.nodes {
		loop.nodes[i] = vectorLoopNode{}
	}
	loop.nodes[0] = mallocVectorNode{probe}
	probe.check(t, func() {
		res, err := bcc.Run(in, loop, bcc.WithoutTranscripts())
		if err != nil {
			t.Fatal(err)
		}
		bcc.Recycle(res)
	})
	// The constant is the per-run overhead (result struct, node table,
	// pool misses). A per-round regression would add thousands.
	if perRun > 16 {
		t.Errorf("per-run allocation constant is %.1f, want a small constant", perRun)
	}
}
