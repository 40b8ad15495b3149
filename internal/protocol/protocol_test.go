package protocol

import (
	"context"
	"reflect"
	"testing"

	"bcclique/internal/bcc"
	"bcclique/internal/family"
	"bcclique/internal/graph"
)

func build(t *testing.T, famName string, n int, seed int64) *graph.Graph {
	t.Helper()
	f, ok := family.Lookup(famName)
	if !ok {
		t.Fatalf("unknown family %s", famName)
	}
	g, err := f.Build(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAllProtocolsCorrectOnCycles runs every registered protocol on a
// connected one-cycle and a disconnected two-cycle: every adapter must
// decide and label both correctly (the sketch promise a=1 cannot peel
// 2-regular graphs, so it refuses — detectably).
func TestAllProtocolsCorrectOnCycles(t *testing.T) {
	const n = 16
	one := build(t, "one-cycle", n, 3)
	two := build(t, "two-cycle", n, 3)
	for _, p := range All() {
		for _, g := range []*graph.Graph{one, two} {
			out, err := p.Run(context.Background(), g, 5)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if p.Name() == "sketch-a1" {
				if out.SilentWrong() {
					t.Errorf("%s: silent wrong answer on a 2-regular input", p.Name())
				}
				continue
			}
			if !out.Correct {
				t.Errorf("%s on %d-component input: verdict %v, correct=false",
					p.Name(), g.NumComponents(), out.Verdict)
			}
			if out.SilentWrong() {
				t.Errorf("%s: silent wrong answer", p.Name())
			}
		}
	}
}

// TestOutcomeCostAccounting pins the per-round transcript: RoundBits
// sums to TotalBits, has one entry per round, and never exceeds
// n·bandwidth per round.
func TestOutcomeCostAccounting(t *testing.T) {
	g := build(t, "one-cycle", 16, 1)
	for _, p := range All() {
		out, err := p.Run(context.Background(), g, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(out.RoundBits) != out.Rounds {
			t.Errorf("%s: %d round-bit entries for %d rounds", p.Name(), len(out.RoundBits), out.Rounds)
		}
		sum := 0
		for t1, b := range out.RoundBits {
			if b < 0 || b > out.N*out.Bandwidth {
				t.Errorf("%s round %d: %d bits outside [0, %d]", p.Name(), t1+1, b, out.N*out.Bandwidth)
			}
			sum += b
		}
		if sum != out.TotalBits {
			t.Errorf("%s: round bits sum to %d, total is %d", p.Name(), sum, out.TotalBits)
		}
		if out.Bandwidth != p.Bandwidth(out.N) {
			t.Errorf("%s: outcome bandwidth %d, declared %d", p.Name(), out.Bandwidth, p.Bandwidth(out.N))
		}
	}
}

// TestRoundSummary pins the memory-bounded digest: nearest-rank
// quantiles over a known series, the degenerate cases, and agreement
// with every adapter's live outcome.
func TestRoundSummary(t *testing.T) {
	s := SummarizeRounds([]int{5, 1, 3, 2, 4})
	want := RoundSummary{Rounds: 5, TotalBits: 15, MinBits: 1, MedianBits: 3, P95Bits: 5, MaxBits: 5}
	if s != want {
		t.Errorf("summary = %+v, want %+v", s, want)
	}
	if z := SummarizeRounds(nil); z != (RoundSummary{}) {
		t.Errorf("empty summary = %+v", z)
	}
	g := build(t, "two-cycle", 16, 2)
	for _, p := range All() {
		out, err := p.Run(context.Background(), g, 3)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		s := out.Summary()
		if s.Rounds != out.Rounds || s.TotalBits != out.TotalBits {
			t.Errorf("%s: summary %+v disagrees with outcome (rounds %d bits %d)",
				p.Name(), s, out.Rounds, out.TotalBits)
		}
		if s.MinBits > s.MedianBits || s.MedianBits > s.P95Bits || s.P95Bits > s.MaxBits {
			t.Errorf("%s: quantiles out of order: %+v", p.Name(), s)
		}
	}
}

// TestRunDeterministic pins the adapter determinism contract: equal
// (graph, seed) yield equal outcomes, including for the KT-0 adapter
// whose wiring is seeded.
func TestRunDeterministic(t *testing.T) {
	g := build(t, "er-threshold", 24, 9)
	for _, p := range All() {
		a, err := p.Run(context.Background(), g, 11)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		b, err := p.Run(context.Background(), g, 11)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs with one seed diverge", p.Name())
		}
	}
}

// TestSketchRefusesOutsidePromise is the promise-violation contract: on
// a barbell (minimum degree ≫ 4a) the peeling stalls and every replica
// refuses with NO/−1 — detectably, never silently wrong.
func TestSketchRefusesOutsidePromise(t *testing.T) {
	g := build(t, "barbell", 32, 1)
	for _, a := range []int{1, 2} {
		out, err := Sketch{Arboricity: a}.Run(context.Background(), g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Refused {
			t.Errorf("sketch-a%d on barbell-32: expected refusal, got verdict %v labels %v",
				a, out.Verdict, out.Labels[:4])
		}
		if out.SilentWrong() {
			t.Errorf("sketch-a%d: silent wrong answer", a)
		}
		if out.Verdict != bcc.VerdictNo {
			t.Errorf("sketch-a%d: refusal must carry verdict NO", a)
		}
	}
}

// TestKT0ExchangeWideStreams runs the two slot-stream protocols,
// kt0-exchange and neighborhood, on inputs whose streams outgrow one
// word: er-threshold@128 (MaxDegree·⌈log₂ n⌉ = 10·7 = 70 bits) and
// planted-2@256, where a one-word stream answered a wrong YES. Every
// slot, the one straddling bit 64 and those past it included, must
// decode to a full neighbour: a partial one can name a real vertex,
// and that spurious claim merges two components into a silent wrong
// answer.
func TestKT0ExchangeWideStreams(t *testing.T) {
	for _, c := range []struct {
		fam  string
		n    int
		seed int64
	}{{"er-threshold", 128, -4799528948525441024}, {"planted-2", 256, 1}} {
		g := build(t, c.fam, c.n, c.seed)
		if d, b := maxDegree(g), bitsFor(g.N()); d*b <= 64 {
			t.Fatalf("%s@%d no longer overflows a word: MaxDegree·⌈log₂ n⌉ = %d·%d", c.fam, c.n, d, b)
		}
		for _, p := range []Protocol{KT0Exchange{}, Neighborhood{}} {
			out, err := p.Run(context.Background(), g, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct {
				t.Errorf("%s on %s@%d: verdict %v with %d components, correct=false (silent wrong: %t)",
					p.Name(), c.fam, c.n, out.Verdict, g.NumComponents(), out.SilentWrong())
			}
		}
	}
}

// TestKT0ExchangeIgnoresWiring pins why the KT-0 adapter may change
// how it draws its wiring without changing a row: on fixed inputs of
// every E17 family, the whole Outcome is equal across wiring seeds,
// labels and per-round bits included.
func TestKT0ExchangeIgnoresWiring(t *testing.T) {
	for _, fam := range []string{"one-cycle", "two-cycle", "crossed-two-cycle", "er-threshold", "grid"} {
		for _, n := range []int{64, 512} {
			g := build(t, fam, n, 7)
			var first *Outcome
			for _, seed := range []int64{1, 2, 3} {
				out, err := KT0Exchange{}.Run(context.Background(), g, seed)
				if err != nil {
					t.Fatalf("%s@%d seed %d: %v", fam, n, seed, err)
				}
				if first == nil {
					first = out
				} else if !reflect.DeepEqual(out, first) {
					t.Errorf("%s@%d: wiring seed %d changes the outcome", fam, n, seed)
				}
			}
		}
	}
}

// TestKeyGolden pins the canonical cache-key encoding of every
// protocol. These strings feed the content-addressed result cache;
// change an adapter's parameters or version deliberately, then update
// this table in the same commit.
func TestKeyGolden(t *testing.T) {
	want := map[string]string{
		"neighborhood": "protocol=neighborhood;v=2;deg=auto",
		"kt0-exchange": "protocol=kt0-exchange;v=3;deg=auto;wiring=random",
		"boruvka":      "protocol=boruvka;v=1;idbits=ceil(log2(n))",
		"flood-b1":     "protocol=flood;v=1;b=1",
		"sketch-a1":    "protocol=sketch;v=1;a=1",
		"sketch-a2":    "protocol=sketch;v=1;a=2",
	}
	ps := All()
	if len(ps) != len(want) {
		t.Fatalf("registry has %d protocols, golden table has %d", len(ps), len(want))
	}
	for _, p := range ps {
		if got := p.Key(); got != want[p.Name()] {
			t.Errorf("%s key = %q, want %q", p.Name(), got, want[p.Name()])
		}
	}
}

// TestLookupAndNames covers the registry surface.
func TestLookupAndNames(t *testing.T) {
	for _, name := range Names() {
		p, ok := Lookup(name)
		if !ok || p.Name() != name {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted an unknown name")
	}
}
