// Package equiv pins the shared-substrate protocols' central contract:
// outputs are bit-identical between vector and per-port delivery,
// between the bit plane (where the bound run writes every round with
// its own SendBits) and the generic loop, and between bound runs and
// bare nodes (each a one-replica run of the same type, driven by hand
// through its ports). Verdicts, labels,
// RoundBits, and per-vertex transcripts must all match — the sweep
// grids' cached content addresses depend on it.
package equiv_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"bcclique/internal/algorithms"
	"bcclique/internal/bcc"
	"bcclique/internal/family"
	"bcclique/internal/graph"
	"bcclique/internal/sketch"
)

// equivFamilies are the input shapes under test. The cycles exercise
// the word-boundary regimes on 2-regular inputs; "er" is a seeded
// er-threshold graph — irregular degrees (so neighborhood's and
// kt0-exchange's slot streams span more than one 64-bit word and sketch
// nodes cross the 4a live-neighbour silence gate), isolated vertices,
// and usually disconnected.
var equivFamilies = []string{"one-cycle", "two-cycle", "er"}

// equivSizes straddle the bit plane's 64-bit word boundary: one word
// (22), just over one word (70), just over two words (130).
var equivSizes = []int{22, 70, 130}

// protoCase is one protocol under test: a factory given the largest ID
// in play, and the truncation schedule worth pinning (word-boundary and
// phase-boundary straddles).
type protoCase struct {
	name string
	// kt0 runs on a KT-0 instance (rotation wiring on the cycles, the
	// protocol adapter's seeded random wiring on "er"); everything else
	// is KT-1 canonical/permuted.
	kt0    bool
	make   func(t *testing.T, maxID, maxDeg int) bcc.Algorithm
	truncs func(n, full int) []int
}

func protoCases() []protoCase {
	return []protoCase{
		{
			name: "boruvka",
			make: func(t *testing.T, maxID, _ int) bcc.Algorithm {
				a, err := algorithms.NewBoruvka(bitsFor(maxID + 1))
				if err != nil {
					t.Fatal(err)
				}
				return a
			},
			truncs: func(_, full int) []int { return []int{1, 2, full - 1} },
		},
		{
			name: "kt0-exchange",
			kt0:  true,
			make: func(t *testing.T, maxID, maxDeg int) bcc.Algorithm {
				a, err := algorithms.NewKT0Exchange(maxDeg, bitsFor(maxID+1))
				if err != nil {
					t.Fatal(err)
				}
				return a
			},
			truncs: func(_, full int) []int {
				// full = (maxDeg+1)·idBits; the chosen points straddle the
				// uid/stream boundary on 2-regular inputs and land
				// mid-stream — including past bit 64 — on the er family.
				w := full / 3
				return []int{1, w - 1, w, w + 1, 2 * w, full - 1}
			},
		},
		{
			name: "neighborhood",
			make: func(t *testing.T, _, maxDeg int) bcc.Algorithm {
				a, err := algorithms.NewNeighborhoodBroadcast(maxDeg)
				if err != nil {
					t.Fatal(err)
				}
				return a
			},
			// full = maxDeg·⌈log₂ n⌉: the first slot boundary, and bit 64
			// of a stream, which the er family reaches (70 rounds at
			// n = 70, 104 at n = 130).
			truncs: func(n, full int) []int {
				b := bitsFor(n)
				return []int{1, b - 1, b, b + 1, 63, 64, 65, full - 1}
			},
		},
		{
			name: "sketch-a2",
			make: func(t *testing.T, _, _ int) bcc.Algorithm {
				a, err := sketch.NewConnectivity(2)
				if err != nil {
					t.Fatal(err)
				}
				return a
			},
			// sketchLen = 2·(4·2)+1 = 17: mid-phase, phase end, phase
			// start, second phase end.
			truncs: func(_, full int) []int { return []int{1, 16, 17, 18, 34, full - 1} },
		},
		{
			name: "flood-b1",
			make: func(t *testing.T, _, _ int) bcc.Algorithm {
				a, err := algorithms.NewFlood(1)
				if err != nil {
					t.Fatal(err)
				}
				return a
			},
			// One bit per round: truncations straddling the row bitset's
			// word boundary.
			truncs: func(_, full int) []int { return []int{1, 63, 64, 65, full - 1} },
		},
	}
}

func bitsFor(n int) int { return max(1, bits.Len(uint(n-1))) }

// equivIDs returns the vertex→ID assignment: ascending (canonical
// wiring) or a multiplicative scramble (permuted wiring, rank ≠ vertex)
// — the substrates' indexers must be exercised off the identity path.
func equivIDs(n int, scrambled bool) []int {
	ids := make([]int, n)
	for v := range ids {
		if scrambled {
			ids[v] = 2*((v*7919)%n) + 3 // 7919 is prime, so v·7919 mod n is a bijection
		} else {
			ids[v] = 2*v + 3
		}
	}
	return ids
}

func buildInput(t *testing.T, fam string, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	switch fam {
	case "one-cycle":
		for v := 0; v < n; v++ {
			g.MustAddEdge(v, (v+1)%n)
		}
	case "two-cycle":
		h := n / 2
		for v := 0; v < h; v++ {
			g.MustAddEdge(v, (v+1)%h)
		}
		for v := h; v < n; v++ {
			g.MustAddEdge(v, h+(v+1-h)%(n-h))
		}
	case "er":
		fm, ok := family.Lookup("er-threshold")
		if !ok {
			t.Fatal("er-threshold family missing")
		}
		var err error
		if g, err = fm.Build(n, 3); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown family %q", fam)
	}
	return g
}

// maxDegreeOf returns the input graph's maximum degree — what the
// protocol adapter provisions kt0-exchange's schedule with.
func maxDegreeOf(g *graph.Graph) int {
	md := 1
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > md {
			md = d
		}
	}
	return md
}

func buildInstance(t *testing.T, pc protoCase, fam string, n int, scrambled bool) (*bcc.Instance, int) {
	t.Helper()
	ids := equivIDs(n, scrambled)
	g := buildInput(t, fam, n)
	var in *bcc.Instance
	var err error
	if pc.kt0 {
		wiring := bcc.RotationWiring(n)
		if fam == "er" {
			wiring = bcc.RandomWiring(n, rand.New(rand.NewSource(3)))
		}
		in, err = bcc.NewKT0(ids, g, wiring)
	} else {
		in, err = bcc.NewKT1(ids, g)
	}
	if err != nil {
		t.Fatal(err)
	}
	return in, maxDegreeOf(g)
}

// compareResults asserts every observable output of two runs matches:
// rounds, verdicts, labels, per-round bit counts, and per-vertex sent
// transcripts (as trit strings when both runs rode the bit plane).
func compareResults(t *testing.T, label string, want, got *bcc.Result) {
	t.Helper()
	if got.Rounds != want.Rounds {
		t.Fatalf("%s: rounds %d, want %d", label, got.Rounds, want.Rounds)
	}
	if got.HasVerdict != want.HasVerdict || got.Verdict != want.Verdict {
		t.Fatalf("%s: verdict %v/%v, want %v/%v", label, got.HasVerdict, got.Verdict, want.HasVerdict, want.Verdict)
	}
	if got.TotalBits != want.TotalBits {
		t.Fatalf("%s: total bits %d, want %d", label, got.TotalBits, want.TotalBits)
	}
	if len(got.Labels) != len(want.Labels) {
		t.Fatalf("%s: %d labels, want %d", label, len(got.Labels), len(want.Labels))
	}
	for v := range want.Labels {
		if got.Labels[v] != want.Labels[v] {
			t.Fatalf("%s: vertex %d label %d, want %d", label, v, got.Labels[v], want.Labels[v])
		}
	}
	for r := range want.RoundBits {
		if got.RoundBits[r] != want.RoundBits[r] {
			t.Fatalf("%s: round %d bits %d, want %d", label, r+1, got.RoundBits[r], want.RoundBits[r])
		}
	}
	if want.Transcripts == nil || got.Transcripts == nil {
		return
	}
	for v := range want.Transcripts {
		ws, gs := want.Transcripts[v].Sent, got.Transcripts[v].Sent
		if len(ws) != len(gs) {
			t.Fatalf("%s: vertex %d sent %d messages, want %d", label, v, len(gs), len(ws))
		}
		for r := range ws {
			if ws[r] != gs[r] {
				t.Fatalf("%s: vertex %d round %d sent %v, want %v", label, v, r+1, gs[r], ws[r])
			}
		}
	}
	if want.BitPlane && got.BitPlane {
		wt, err := bcc.SentTritLabels(want)
		if err != nil {
			t.Fatal(err)
		}
		gt, err := bcc.SentTritLabels(got)
		if err != nil {
			t.Fatal(err)
		}
		for v := range wt {
			if wt[v] != gt[v] {
				t.Fatalf("%s: vertex %d trit transcript %q, want %q", label, v, gt[v], wt[v])
			}
		}
	}
}

// TestReplicaParallelMatchesSequential is the tentpole pin: for every
// protocol, family, ID assignment, size, and truncation point, a run
// the bit plane serves (every 1-bit protocol's run writes its own plane
// words) produces results identical to the same run on the generic
// Message vector (WithoutBitPlane).
func TestReplicaParallelMatchesSequential(t *testing.T) {
	for _, pc := range protoCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			for _, n := range equivSizes {
				for _, scrambled := range []bool{false, true} {
					for _, fam := range equivFamilies {
						in, maxDeg := buildInstance(t, pc, fam, n, scrambled)
						maxID := 0
						for _, id := range equivIDs(n, scrambled) {
							if id > maxID {
								maxID = id
							}
						}
						algo := pc.make(t, maxID, maxDeg)
						full := algo.Rounds(n)
						truncs := append(pc.truncs(n, full), full)
						for _, rounds := range truncs {
							if rounds < 0 || rounds > full {
								continue
							}
							label := fmt.Sprintf("%s/%s/n=%d/scrambled=%v/rounds=%d", pc.name, fam, n, scrambled, rounds)
							seq, err := bcc.Run(in, algo, bcc.WithRounds(rounds))
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							// Generic loop with the bit plane disabled.
							if seq.BitPlane {
								gen, err := bcc.Run(in, algo, bcc.WithRounds(rounds), bcc.WithoutBitPlane())
								if err != nil {
									t.Fatalf("%s no-plane: %v", label, err)
								}
								compareResults(t, label+" no-plane", seq, gen)
							}
						}
					}
				}
			}
		})
	}
}

// TestBareNodesMatchRunner pins bare nodes to bound runs: a manual
// round loop over bare NewNode nodes (each a one-replica run that its
// own Receive feeds, the form transcript verification drives by hand
// and the reduction runs through the runner) must reproduce the
// runner's bound-run transcripts and outputs exactly, on canonical and
// scrambled IDs, at 0 rounds, at every truncation point of the
// protocol, and on the full schedule.
func TestBareNodesMatchRunner(t *testing.T) {
	for _, pc := range protoCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			for _, n := range []int{22, 70} {
				for _, scrambled := range []bool{false, true} {
					for _, fam := range equivFamilies {
						in, maxDeg := buildInstance(t, pc, fam, n, scrambled)
						algo := pc.make(t, 2*(n-1)+3, maxDeg)
						full := algo.Rounds(n)
						for _, rounds := range append([]int{0, full}, pc.truncs(n, full)...) {
							if rounds >= 0 && rounds <= full {
								label := fmt.Sprintf("%s/%s/n=%d/scrambled=%v/rounds=%d", pc.name, fam, n, scrambled, rounds)
								checkBareNodes(t, label, algo, in, rounds)
							}
						}
					}
				}
			}
		})
	}
}

// TestBareBrokenNodesMatchRunner pins bare nodes that cannot run the
// protocol — over its degree bound, with an ID wider than its ID width,
// or KT-1 protocols on a KT-0 instance — to the runner on the full
// schedule: both stay silent and answer NO and label −1 alike.
func TestBareBrokenNodesMatchRunner(t *testing.T) {
	const n = 22
	for _, pc := range protoCases() {
		for _, fam := range equivFamilies {
			in, maxDeg := buildInstance(t, pc, fam, n, true)
			label := fmt.Sprintf("%s/%s", pc.name, fam)
			if maxDeg > 1 {
				algo := pc.make(t, 2*(n-1)+3, maxDeg-1)
				checkBareNodes(t, label+"/degree", algo, in, algo.Rounds(n))
			}
			algo := pc.make(t, n, maxDeg) // an ID width for about half the IDs
			checkBareNodes(t, label+"/id-width", algo, in, algo.Rounds(n))
			if !pc.kt0 {
				kt0, err := bcc.NewKT0(equivIDs(n, true), buildInput(t, fam, n), bcc.RotationWiring(n))
				if err != nil {
					t.Fatal(err)
				}
				algo := pc.make(t, 2*(n-1)+3, maxDeg)
				checkBareNodes(t, label+"/kt0", algo, kt0, algo.Rounds(n))
			}
		}
	}
}

// checkBareNodes runs algo on in for the given number of rounds twice,
// through the runner and over bare nodes by hand, and compares every
// send, label and the system verdict.
func checkBareNodes(t *testing.T, label string, algo bcc.Algorithm, in *bcc.Instance, rounds int) {
	t.Helper()
	n := in.N()
	want, err := bcc.Run(in, algo, bcc.WithRounds(rounds))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	nodes := make([]bcc.Node, n)
	for v := 0; v < n; v++ {
		nodes[v] = algo.NewNode(in.View(v), nil)
	}
	sends := make([]bcc.Message, n)
	inbox := make([]bcc.Message, n-1)
	for r := 1; r <= rounds; r++ {
		for v := 0; v < n; v++ {
			m := nodes[v].Send(r)
			sends[v] = m
			if want.Transcripts[v].Sent[r-1] != m {
				t.Fatalf("%s: vertex %d round %d bare sent %v, runner sent %v",
					label, v, r, m, want.Transcripts[v].Sent[r-1])
			}
		}
		for v := 0; v < n; v++ {
			for p := 0; p < n-1; p++ {
				inbox[p] = sends[in.NeighborAt(v, p)]
			}
			nodes[v].Receive(r, inbox)
		}
	}
	verdict := bcc.VerdictYes
	for v := 0; v < n; v++ {
		d, ok := nodes[v].(bcc.Decider)
		if !ok {
			t.Fatalf("%s: bare node is not a Decider", label)
		}
		if d.Decide() != bcc.VerdictYes {
			verdict = bcc.VerdictNo
		}
		l, ok := nodes[v].(bcc.Labeler)
		if !ok {
			t.Fatalf("%s: bare node is not a Labeler", label)
		}
		if got := l.Label(); got != want.Labels[v] {
			t.Fatalf("%s: vertex %d bare label %d, runner label %d", label, v, got, want.Labels[v])
		}
	}
	if verdict != want.Verdict {
		t.Fatalf("%s: bare system verdict %v, runner verdict %v", label, verdict, want.Verdict)
	}
}

// TestReplicaParallelXLSmoke runs one large cell per cheap protocol —
// boruvka at its 16384 ceiling, kt0-exchange at 8192, sketch at 2048 —
// and pins each verdict at full scale. flood-b1 at 32768 is
// covered by the grid ladder tests.
func TestReplicaParallelXLSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("xl smoke skipped in -short")
	}
	cases := []struct {
		pc  protoCase
		n   int
		fam string
	}{}
	for _, pc := range protoCases() {
		switch pc.name {
		case "boruvka":
			cases = append(cases, struct {
				pc  protoCase
				n   int
				fam string
			}{pc, 16384, "two-cycle"})
		case "kt0-exchange":
			cases = append(cases, struct {
				pc  protoCase
				n   int
				fam string
			}{pc, 8192, "one-cycle"})
		case "sketch-a2":
			cases = append(cases, struct {
				pc  protoCase
				n   int
				fam string
			}{pc, 2048, "two-cycle"})
		}
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s-%d", c.pc.name, c.n), func(t *testing.T) {
			in, maxDeg := buildInstance(t, c.pc, c.fam, c.n, false)
			algo := c.pc.make(t, 2*(c.n-1)+3, maxDeg)
			seq, err := bcc.Run(in, algo, bcc.WithoutTranscripts())
			if err != nil {
				t.Fatal(err)
			}
			wantVerdict := bcc.VerdictYes
			if c.fam == "two-cycle" {
				wantVerdict = bcc.VerdictNo
			}
			if seq.Verdict != wantVerdict {
				t.Fatalf("%s@%d: verdict %v, want %v", c.pc.name, c.n, seq.Verdict, wantVerdict)
			}
		})
	}
}
