package algorithms

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"bcclique/internal/bcc"
	"bcclique/internal/graph"
)

// sendInputs returns the inputs the SendBits differential test covers
// at size n: empty, complete (n ≤ 129), one cycle, two cycles, a cycle
// with two chords from vertex 0 (degree 4 there, 3 at the chords' far
// ends, 2 elsewhere), and Erdős–Rényi graphs at p = 0.05 and 0.5 over
// three seeds.
func sendInputs(n int) map[string]*graph.Graph {
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
	one, chords := graph.New(n), graph.New(n)
	for v := 0; v < n; v++ {
		edge(one, v, (v+1)%n)
		edge(chords, v, (v+1)%n)
	}
	edge(chords, 0, n/3)
	edge(chords, 0, 2*n/3)
	inputs["one-cycle"] = one
	inputs["cycle-chords"] = chords
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

// checkSendBits binds algo's run on in and checks, for every round
// 1..Rounds(n)+2, that the words the run's SendBits writes equal the
// words built from every node's Send, and that the rounds past the
// schedule are silent. Each round's words are then heard (HearBits), so
// that kt0-exchange's phase 2 reads the uids its phase 1 wrote.
func checkSendBits(t *testing.T, label string, algo bcc.Algorithm, in *bcc.Instance, canonical bool) {
	t.Helper()
	n, rounds := in.N(), algo.Rounds(in.N())
	bound := algo.(bcc.RunBinder).BindRun(in, rounds)
	defer bound.ReleaseRun()
	nodes := make([]bcc.Node, n)
	for v := range nodes {
		nodes[v] = bound.NewNode(in.View(v), nil)
	}
	run := bound.(bcc.BitRun)
	if !run.BindPlane(canonical) {
		t.Fatalf("%s: the run declined the plane", label)
	}
	words := (n + 63) / 64
	value, spoke := make([]uint64, words), make([]uint64, words)
	wantValue, wantSpoke := make([]uint64, words), make([]uint64, words)
	for r := 1; r <= rounds+2; r++ {
		clear(value)
		clear(spoke)
		run.SendBits(r, value, spoke)
		clear(wantValue)
		clear(wantSpoke)
		for v, node := range nodes {
			if m := node.Send(r); m.Len != 0 {
				wantSpoke[v>>6] |= 1 << uint(v&63)
				wantValue[v>>6] |= m.Bits & 1 << uint(v&63)
			}
		}
		for w := range value {
			if value[w] != wantValue[w] || spoke[w] != wantSpoke[w] {
				t.Fatalf("%s: round %d word %d: SendBits wrote value %#x spoke %#x, Send gives value %#x spoke %#x",
					label, r, w, value[w], spoke[w], wantValue[w], wantSpoke[w])
			}
			if r > rounds && spoke[w] != 0 {
				t.Fatalf("%s: round %d word %d: spoke %#x, want silence", label, r, w, spoke[w])
			}
		}
		run.HearBits(r, value, spoke)
	}
}

// TestSendBitsMatchesSend pins the word-parallel send of every plane
// run (flood-b1's two adjacency rows a round, kt0-exchange's and
// neighborhood's one pass over their slot arenas) against the nodes'
// Send across the plane's word boundaries. kt0-exchange and
// neighborhood run at MaxDegree 3, so the inputs mix live vertices,
// filler slots and broken (over-degree) vertices in one word, and
// kt0-exchange runs a second time with one ID that does not fit its
// IDBits. On a KT-0 instance every flood and neighborhood node is
// broken and every round is silent.
func TestSendBitsMatchesSend(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	flood, err := NewFlood(1)
	must(err)
	nb, err := NewNeighborhoodBroadcast(3)
	must(err)
	for _, n := range []int{2, 3, 63, 64, 65, 127, 128, 129, 300} {
		kt0, err := NewKT0Exchange(3, bits.Len(uint(n-1)))
		must(err)
		wide := bcc.SequentialIDs(n)
		wide[n/2] = 1 << uint(kt0.IDBits)
		inputs := sendInputs(n)
		for name, g := range inputs {
			label := fmt.Sprintf("n=%d/%s", n, name)
			kt1, err := bcc.NewKT1(bcc.SequentialIDs(n), g)
			must(err)
			checkSendBits(t, "flood-b1/"+label, flood, kt1, true)
			checkSendBits(t, "neighborhood/"+label, nb, kt1, true)
			for ids, seq := range map[string][]int{"ids": bcc.SequentialIDs(n), "wide-id": wide} {
				in, err := bcc.NewRandomKT0(seq, g, int64(n))
				must(err)
				checkSendBits(t, "kt0-exchange/"+ids+"/"+label, kt0, in, false)
			}
		}
		kt0In, err := bcc.NewKT0(bcc.SequentialIDs(n), inputs["one-cycle"], bcc.RotationWiring(n))
		must(err)
		checkSendBits(t, fmt.Sprintf("flood-b1/n=%d/kt0", n), flood, kt0In, false)
		checkSendBits(t, fmt.Sprintf("neighborhood/n=%d/kt0", n), nb, kt0In, false)
	}
}
