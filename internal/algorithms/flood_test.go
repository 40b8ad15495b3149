package algorithms

import (
	"fmt"
	"math/rand"
	"testing"

	"bcclique/internal/bcc"
	"bcclique/internal/graph"
)

// floodSendInputs returns the inputs the SendBits differential test
// covers at size n: empty, complete (n ≤ 129), one cycle, two cycles,
// and Erdős–Rényi graphs at p = 0.05 and 0.5 over three seeds.
func floodSendInputs(n int) map[string]*graph.Graph {
	edge := func(g *graph.Graph, u, v int) {
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	inputs := map[string]*graph.Graph{"empty": graph.New(n)}
	if n <= 129 {
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				edge(g, u, v)
			}
		}
		inputs["complete"] = g
	}
	one := graph.New(n)
	for v := 0; v < n; v++ {
		edge(one, v, (v+1)%n)
	}
	inputs["one-cycle"] = one
	two, h := graph.New(n), n/2
	for v := 0; v < h; v++ {
		edge(two, v, (v+1)%h)
	}
	for v := h; v < n; v++ {
		edge(two, v, h+(v+1-h)%(n-h))
	}
	inputs["two-cycle"] = two
	for _, p := range []float64{0.05, 0.5} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := graph.New(n)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if rng.Float64() < p {
						edge(g, u, v)
					}
				}
			}
			inputs[fmt.Sprintf("er-p%v-seed%d", p, seed)] = g
		}
	}
	return inputs
}

// checkFloodSendBits binds a flood-b1 run on in and checks, for every
// round 1..n+1, that the words the run's SendBits writes equal the
// words built from every node's SendBit, and that the rounds from
// silentFrom on are silent.
func checkFloodSendBits(t *testing.T, label string, in *bcc.Instance, silentFrom int) {
	t.Helper()
	algo, err := NewFlood(1)
	if err != nil {
		t.Fatal(err)
	}
	n := in.N()
	run := algo.BindRun(in, algo.Rounds(n)).(*floodRun)
	defer run.ReleaseRun()
	nodes := make([]*floodNode, n)
	for v := range nodes {
		nodes[v] = run.NewNode(in.View(v), nil).(*floodNode)
		if !nodes[v].BindPlane(v, true) {
			t.Fatalf("%s: vertex %d declined the canonical plane", label, v)
		}
	}
	words := (n + 63) / 64
	value, spoke := make([]uint64, words), make([]uint64, words)
	wantValue, wantSpoke := make([]uint64, words), make([]uint64, words)
	for r := 1; r <= n+1; r++ {
		clear(value)
		clear(spoke)
		run.SendBits(r, value, spoke)
		clear(wantValue)
		clear(wantSpoke)
		for v, node := range nodes {
			if bit, speak := node.SendBit(r); speak {
				wantSpoke[v>>6] |= 1 << uint(v&63)
				wantValue[v>>6] |= uint64(bit) << uint(v&63)
			}
		}
		for w := range value {
			if value[w] != wantValue[w] || spoke[w] != wantSpoke[w] {
				t.Fatalf("%s: round %d word %d: SendBits wrote value %#x spoke %#x, SendBit gives value %#x spoke %#x",
					label, r, w, value[w], spoke[w], wantValue[w], wantSpoke[w])
			}
			if r >= silentFrom && spoke[w] != 0 {
				t.Fatalf("%s: round %d word %d: spoke %#x, want silence", label, r, w, spoke[w])
			}
		}
	}
}

// TestFloodSendBitsMatchesSendBit pins flood-b1's word-parallel send
// (floodRun.SendBits, two adjacency rows per round) against the
// per-node reference (floodNode.SendBit) across the plane's word
// boundaries. Rounds past n−1 are silent, and on a KT-0 instance every
// node is broken and every round is silent.
func TestFloodSendBitsMatchesSendBit(t *testing.T) {
	for _, n := range []int{2, 3, 63, 64, 65, 127, 128, 129, 300} {
		for name, g := range floodSendInputs(n) {
			in, err := bcc.NewKT1(bcc.SequentialIDs(n), g)
			if err != nil {
				t.Fatal(err)
			}
			checkFloodSendBits(t, fmt.Sprintf("n=%d/%s", n, name), in, n)
		}
		in, err := bcc.NewKT0(bcc.SequentialIDs(n), floodSendInputs(n)["one-cycle"], bcc.RotationWiring(n))
		if err != nil {
			t.Fatal(err)
		}
		checkFloodSendBits(t, fmt.Sprintf("n=%d/kt0", n), in, 1)
	}
}
