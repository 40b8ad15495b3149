package crossing

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bcclique/internal/bcc"
	"bcclique/internal/graph"
)

// cycleInstance builds a KT-0 instance whose input is the cycle
// 0-1-...-n-1 with the given wiring.
func cycleInstance(t *testing.T, n int, wiring [][]int) *bcc.Instance {
	t.Helper()
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i
	}
	g, err := graph.FromCycle(n, seq)
	if err != nil {
		t.Fatal(err)
	}
	in, err := bcc.NewKT0(bcc.SequentialIDs(n), g, wiring)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestIndependent(t *testing.T) {
	g, err := graph.FromCycle(6, []int{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		e1   DirectedEdge
		e2   DirectedEdge
		want bool
	}{
		{name: "opposite edges", e1: DirectedEdge{0, 1}, e2: DirectedEdge{3, 4}, want: true},
		{name: "share vertex", e1: DirectedEdge{0, 1}, e2: DirectedEdge{1, 2}, want: false},
		{name: "cross edge exists", e1: DirectedEdge{0, 1}, e2: DirectedEdge{2, 3}, want: false}, // (2,1) is an edge
		{name: "same edge", e1: DirectedEdge{0, 1}, e2: DirectedEdge{0, 1}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Independent(g, tt.e1, tt.e2); got != tt.want {
				t.Errorf("Independent(%v,%v) = %v, want %v", tt.e1, tt.e2, got, tt.want)
			}
		})
	}
}

func TestCrossProducesTwoCycles(t *testing.T) {
	in := cycleInstance(t, 6, bcc.RotationWiring(6))
	e1, e2 := DirectedEdge{0, 1}, DirectedEdge{3, 4}
	crossed, err := Cross(in, e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	lengths, ok := crossed.Input().CycleLengths()
	if !ok {
		t.Fatal("crossed input not 2-regular")
	}
	if len(lengths) != 2 || lengths[0] != 3 || lengths[1] != 3 {
		t.Errorf("cycle lengths = %v, want [3 3]", lengths)
	}
	// New input edges are (0,4) and (3,1).
	if !crossed.Input().HasEdge(0, 4) || !crossed.Input().HasEdge(3, 1) {
		t.Error("crossed instance missing the new input edges (0,4), (3,1)")
	}
	if crossed.Input().HasEdge(0, 1) || crossed.Input().HasEdge(3, 4) {
		t.Error("crossed instance still has the old input edges")
	}
	// Original untouched.
	if !in.Input().HasEdge(0, 1) {
		t.Error("Cross modified the original instance")
	}
}

func TestCrossPreservesViews(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := cycleInstance(t, 8, bcc.RandomWiring(8, rng))
	crossed, err := Cross(in, DirectedEdge{0, 1}, DirectedEdge{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 8; v++ {
		if !in.View(v).Equal(crossed.View(v)) {
			t.Errorf("vertex %d: view changed by crossing (round-0 distinguishable)", v)
		}
	}
}

func TestCrossInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := cycleInstance(t, 9, bcc.RandomWiring(9, rng))
	e1, e2 := DirectedEdge{1, 2}, DirectedEdge{5, 6}
	crossed, err := Cross(in, e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := CrossedPair(e1, e2)
	back, err := Cross(crossed, f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(in) {
		t.Error("Cross(Cross(I,e1,e2), e1', e2') != I — crossing is not an involution")
	}
}

func TestCrossErrors(t *testing.T) {
	in := cycleInstance(t, 6, bcc.RotationWiring(6))
	tests := []struct {
		name string
		e1   DirectedEdge
		e2   DirectedEdge
	}{
		{name: "not an input edge", e1: DirectedEdge{0, 2}, e2: DirectedEdge{3, 4}},
		{name: "not independent", e1: DirectedEdge{0, 1}, e2: DirectedEdge{1, 2}},
		{name: "cross edge present", e1: DirectedEdge{0, 1}, e2: DirectedEdge{2, 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Cross(in, tt.e1, tt.e2); err == nil {
				t.Error("Cross succeeded, want error")
			}
		})
	}
}

func TestCrossMergesTwoCycles(t *testing.T) {
	// Two triangles; crossing consistently oriented edges from different
	// cycles merges them into one 6-cycle.
	g, err := graph.FromCycles(6, []int{0, 1, 2}, []int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	in, err := bcc.NewKT0(bcc.SequentialIDs(6), g, bcc.RotationWiring(6))
	if err != nil {
		t.Fatal(err)
	}
	oriented, err := OrientCycles(g)
	if err != nil {
		t.Fatal(err)
	}
	// Pick one oriented edge per cycle.
	var e1, e2 DirectedEdge
	e1 = oriented[0] // in triangle {0,1,2}
	for _, e := range oriented {
		if e.V >= 3 {
			e2 = e
			break
		}
	}
	crossed, err := Cross(in, e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	lengths, ok := crossed.Input().CycleLengths()
	if !ok || len(lengths) != 1 || lengths[0] != 6 {
		t.Errorf("lengths = %v (ok=%v), want one 6-cycle", lengths, ok)
	}
}

// TestCrossRandomProperty: crossing consistently oriented independent edges
// of a random Hamiltonian cycle always yields a two-cycle cover with
// preserved views, and the crossing is involutive.
func TestCrossRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(7)
		g := graph.RandomOneCycle(n, rng)
		in, err := bcc.NewKT0(bcc.SequentialIDs(n), g, bcc.RandomWiring(n, rng))
		if err != nil {
			return false
		}
		oriented, err := OrientCycles(g)
		if err != nil {
			return false
		}
		// Find an independent pair.
		var pair []DirectedEdge
		for _, e1 := range oriented {
			for _, e2 := range oriented {
				if Independent(g, e1, e2) {
					pair = []DirectedEdge{e1, e2}
					break
				}
			}
			if pair != nil {
				break
			}
		}
		if pair == nil {
			return n < 6 // every n ≥ 6 cycle has independent pairs
		}
		crossed, err := Cross(in, pair[0], pair[1])
		if err != nil {
			return false
		}
		lengths, ok := crossed.Input().CycleLengths()
		if !ok || len(lengths) != 2 {
			return false
		}
		for v := 0; v < n; v++ {
			if !in.View(v).Equal(crossed.View(v)) {
				return false
			}
		}
		f1, f2 := CrossedPair(pair[0], pair[1])
		back, err := Cross(crossed, f1, f2)
		if err != nil {
			return false
		}
		return back.Equal(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestOrientCyclesConsistent(t *testing.T) {
	g, err := graph.FromCycles(7, []int{0, 1, 2}, []int{3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	oriented, err := OrientCycles(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(oriented) != 7 {
		t.Fatalf("got %d oriented edges, want 7", len(oriented))
	}
	// Each vertex appears exactly once as a head and once as a tail.
	heads := make(map[int]int)
	tails := make(map[int]int)
	for _, e := range oriented {
		heads[e.V]++
		tails[e.U]++
	}
	for v := 0; v < 7; v++ {
		if heads[v] != 1 || tails[v] != 1 {
			t.Errorf("vertex %d: %d head / %d tail occurrences, want 1/1", v, heads[v], tails[v])
		}
	}
	if _, err := OrientCycles(graph.New(4)); err == nil {
		t.Error("OrientCycles on non-2-regular graph succeeded, want error")
	}
}

func TestIndependentSubsetOnCycle(t *testing.T) {
	for _, n := range []int{6, 9, 12, 13} {
		seq := make([]int, n)
		for i := range seq {
			seq[i] = i
		}
		g, err := graph.FromCycle(n, seq)
		if err != nil {
			t.Fatal(err)
		}
		oriented, err := OrientCycles(g)
		if err != nil {
			t.Fatal(err)
		}
		got := IndependentSubset(g, oriented)
		if len(got) < n/3 {
			t.Errorf("n=%d: IndependentSubset size %d < ⌊n/3⌋ = %d", n, len(got), n/3)
		}
		for i, e1 := range got {
			for _, e2 := range got[i+1:] {
				if !Independent(g, e1, e2) {
					t.Fatalf("n=%d: chosen edges %v, %v not independent", n, e1, e2)
				}
			}
		}
	}
}

// silentAlgo never broadcasts: the weakest possible algorithm, for which
// every edge stays active forever.
type silentAlgo struct{ rounds int }

func (a silentAlgo) Name() string                         { return "silent" }
func (a silentAlgo) Bandwidth() int                       { return 1 }
func (a silentAlgo) Rounds(int) int                       { return a.rounds }
func (a silentAlgo) NewNode(bcc.View, *bcc.Coin) bcc.Node { return silentNode{} }

type silentNode struct{}

func (silentNode) Send(int) bcc.Message       { return bcc.Silence }
func (silentNode) Receive(int, []bcc.Message) {}

// echoAlgo broadcasts, in round 1, the parity of the vertex's smallest
// input port; in later rounds, the XOR of the bits heard on its input
// ports in the previous round. Its behaviour depends only on local views
// and received messages, making it a natural Lemma 3.4 subject.
type echoAlgo struct{ rounds int }

func (a echoAlgo) Name() string   { return "echo" }
func (a echoAlgo) Bandwidth() int { return 1 }
func (a echoAlgo) Rounds(int) int { return a.rounds }
func (a echoAlgo) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	return &echoNode{view: view}
}

type echoNode struct {
	view bcc.View
	next uint8
}

func (n *echoNode) Send(round int) bcc.Message {
	if round == 1 {
		p := 0
		if len(n.view.InputPorts) > 0 {
			p = n.view.InputPorts[0]
		}
		return bcc.Bit(uint8(p % 2))
	}
	return bcc.Bit(n.next)
}

func (n *echoNode) Receive(_ int, inbox []bcc.Message) {
	var x uint8
	for _, p := range n.view.InputPorts {
		x ^= inbox[p].BitAt(0)
	}
	n.next = x
}

func TestActiveEdgesSilentAlgorithm(t *testing.T) {
	in := cycleInstance(t, 8, bcc.RotationWiring(8))
	res, err := bcc.Run(in, silentAlgo{rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := bcc.SentTritLabels(res)
	if err != nil {
		t.Fatal(err)
	}
	x, y, count, err := DominantLabelPair(in.Input(), labels)
	if err != nil {
		t.Fatal(err)
	}
	if x != "___" || y != "___" || count != 8 {
		t.Errorf("dominant pair = (%q,%q,%d), want (___,___,8)", x, y, count)
	}
	active, err := ActiveEdges(in.Input(), labels, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(active) != 8 {
		t.Errorf("|active| = %d, want 8 (all edges active under silence)", len(active))
	}
}

// TestLemma34 exhaustively checks Lemma 3.4 on a small cycle: for every
// independent oriented pair whose endpoints broadcast matching sequences,
// the instance and its crossing are indistinguishable.
func TestLemma34(t *testing.T) {
	algos := []bcc.Algorithm{silentAlgo{rounds: 4}, echoAlgo{rounds: 4}}
	for _, algo := range algos {
		checked, held := 0, 0
		for _, wiring := range [][][]int{bcc.RotationWiring(8), bcc.RandomWiring(8, rand.New(rand.NewSource(9)))} {
			in := cycleInstance(t, 8, wiring)
			oriented, err := OrientCycles(in.Input())
			if err != nil {
				t.Fatal(err)
			}
			for i, e1 := range oriented {
				for _, e2 := range oriented[i+1:] {
					if !Independent(in.Input(), e1, e2) {
						continue
					}
					hyp, concl, err := Lemma34Holds(in, e1, e2, algo, 4, nil)
					if err != nil {
						t.Fatal(err)
					}
					if hyp {
						checked++
						if concl {
							held++
						} else {
							t.Errorf("%s: Lemma 3.4 violated at crossing %v,%v", algo.Name(), e1, e2)
						}
					}
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no crossing satisfied the hypothesis — test vacuous", algo.Name())
		}
		if checked != held {
			t.Errorf("%s: %d/%d crossings indistinguishable", algo.Name(), held, checked)
		}
	}
}

// TestDistinguishableWithoutMatchingLabels documents that the lemma's
// hypothesis matters: an ID-revealing algorithm distinguishes crossed
// instances (labels differ), so no conclusion is drawn.
func TestDistinguishableWithoutMatchingLabels(t *testing.T) {
	in := cycleInstance(t, 8, bcc.RotationWiring(8))
	algo := idBitsAlgo{rounds: 3}
	hyp, _, err := Lemma34Holds(in, DirectedEdge{0, 1}, DirectedEdge{4, 5}, algo, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hyp {
		t.Error("distinct IDs should give distinct labels; hypothesis unexpectedly held")
	}
}

// TestVerifyIndistinguishableComparesPorts checks that the per-port
// received sequences decide on their own. idBitsAlgo's broadcasts
// depend only on the vertex's own ID, so after crossing (0→1) and
// (4→5) every view and every Sent sequence still agree, but vertex 0
// now hears vertex 5's ID on the port that led to vertex 1.
func TestVerifyIndistinguishableComparesPorts(t *testing.T) {
	const n, rounds = 8, 3
	in := cycleInstance(t, n, bcc.RotationWiring(n))
	crossed, err := Cross(in, DirectedEdge{0, 1}, DirectedEdge{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	algo := idBitsAlgo{rounds: rounds}
	r1, err := bcc.Run(in, algo)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := bcc.Run(crossed, algo)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if !in.View(v).Equal(crossed.View(v)) {
			t.Fatalf("vertex %d: view changed by the crossing", v)
		}
		if !slices.Equal(r1.Transcripts[v].Sent, r2.Transcripts[v].Sent) {
			t.Fatalf("vertex %d: Sent sequence changed by the crossing", v)
		}
	}
	if p := in.PortOf(0, 1); crossed.NeighborAt(0, p) != 5 {
		t.Fatalf("port %d of vertex 0 leads to %d after the crossing, want 5", p, crossed.NeighborAt(0, p))
	}
	same, err := VerifyIndistinguishable(in, crossed, algo, rounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if same {
		t.Error("vertex 0 hears a different ID on its crossed port, yet the runs were reported indistinguishable")
	}
}

type idBitsAlgo struct{ rounds int }

func (a idBitsAlgo) Name() string   { return "id-bits" }
func (a idBitsAlgo) Bandwidth() int { return 1 }
func (a idBitsAlgo) Rounds(int) int { return a.rounds }
func (a idBitsAlgo) NewNode(view bcc.View, _ *bcc.Coin) bcc.Node {
	return &idBitsNode{id: view.ID}
}

type idBitsNode struct{ id int }

func (n *idBitsNode) Send(round int) bcc.Message {
	return bcc.Bit(uint8(n.id >> uint(round-1)))
}
func (n *idBitsNode) Receive(int, []bcc.Message) {}

func BenchmarkCross(b *testing.B) {
	seq := make([]int, 64)
	for i := range seq {
		seq[i] = i
	}
	g, err := graph.FromCycle(64, seq)
	if err != nil {
		b.Fatal(err)
	}
	in, err := bcc.NewKT0(bcc.SequentialIDs(64), g, bcc.RotationWiring(64))
	if err != nil {
		b.Fatal(err)
	}
	e1, e2 := DirectedEdge{0, 1}, DirectedEdge{30, 31}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cross(in, e1, e2); err != nil {
			b.Fatal(err)
		}
	}
}
