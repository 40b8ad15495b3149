package sketch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bcclique/internal/bcc"
	"bcclique/internal/graph"
)

func TestRecovererRoundTrip(t *testing.T) {
	rec, err := NewRecoverer(4)
	if err != nil {
		t.Fatal(err)
	}
	universe := []int{0, 1, 2, 3, 5, 8, 13, 21, 34, 55}
	tests := [][]int{
		nil,
		{0},
		{5},
		{1, 2},
		{0, 13, 55},
		{3, 5, 8, 21},
	}
	for _, set := range tests {
		t.Run(fmt.Sprint(set), func(t *testing.T) {
			sums, err := rec.Encode(set)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := rec.Decode(sums, universe)
			if !ok {
				t.Fatalf("Decode failed for %v", set)
			}
			if len(got) != len(set) {
				t.Fatalf("Decode(%v) = %v", set, got)
			}
			want := make(map[int]bool)
			for _, x := range set {
				want[x] = true
			}
			for _, x := range got {
				if !want[x] {
					t.Fatalf("Decode(%v) = %v", set, got)
				}
			}
		})
	}
}

func TestRecovererRejectsOversized(t *testing.T) {
	rec, err := NewRecoverer(2)
	if err != nil {
		t.Fatal(err)
	}
	universe := []int{1, 2, 3, 4, 5, 6}
	sums, err := rec.Encode([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.Decode(sums, universe); ok {
		t.Error("decoded a 3-set with a 2-sparse recoverer")
	}
}

func TestRecovererRejectsCorruption(t *testing.T) {
	rec, err := NewRecoverer(3)
	if err != nil {
		t.Fatal(err)
	}
	universe := []int{1, 2, 3, 4, 5}
	sums, err := rec.Encode([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	sums[3] = (sums[3] + 1) % (1<<31 - 1)
	if _, ok := rec.Decode(sums, universe); ok {
		t.Error("decoded a corrupted sketch")
	}
}

func TestRecovererRejectsOutsideUniverse(t *testing.T) {
	rec, err := NewRecoverer(3)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := rec.Encode([]int{100})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.Decode(sums, []int{1, 2, 3}); ok {
		t.Error("decoded an element missing from the universe")
	}
}

// TestRecovererRejectsCorruptCountWord feeds count words beyond k, the
// largest of which turn negative as an int; each must be rejected, not
// panic in the allocation sized by the count.
func TestRecovererRejectsCorruptCountWord(t *testing.T) {
	rec, err := NewRecoverer(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []uint64{4, 1<<31 - 1, 1 << 63, 1<<64 - 1} {
		sums, err := rec.Encode([]int{2, 4})
		if err != nil {
			t.Fatal(err)
		}
		sums[0] = count
		if set, ok := rec.Decode(sums, []int{1, 2, 3, 4, 5}); ok {
			t.Errorf("count word %d: decoded %v", count, set)
		}
	}
}

// decodeByScan is Decode with the universe scan for every set size:
// the reference the closed form for c ≤ 2 must match.
func decodeByScan(r *Recoverer, sums []uint64, universe []int) ([]int, bool) {
	e, ok := r.elementary(sums)
	if !ok || e == nil {
		return nil, ok
	}
	set := r.scanRoots(e, universe)
	if set == nil || !r.verify(set, sums) {
		return nil, false
	}
	return set, true
}

// TestDecodeClosedFormMatchesScan is the differential test of the
// closed form against the scan: for k = 1..4 and sorted and unsorted
// universes of distinct elements, Decode must return the scan's set, in
// the same order, and the same ok. The sketches cover sets drawn from
// the universe, sets partly outside it, random count-1 and count-2
// sums (most have no root in GF(p), half of the count-2 ones a
// discriminant that is not a square), forged {x, x} sums (a zero
// discriminant), corrupted words and oversize sets.
func TestDecodeClosedFormMatchesScan(t *testing.T) {
	const p = 1<<31 - 1
	rng := rand.New(rand.NewSource(18))
	decoded := 0 // ok results with two elements
	for i := 0; i < 40000; i++ {
		k := 1 + i%4
		rec, err := NewRecoverer(k)
		if err != nil {
			t.Fatal(err)
		}
		// Distinct elements, a few near the top of the field.
		size := 1 + rng.Intn(24)
		universe := rng.Perm(3 * size)[:size]
		if rng.Intn(8) == 0 {
			universe[rng.Intn(size)] = p - 1 - rng.Intn(8*size)
		}
		if rng.Intn(2) == 0 {
			slices.Sort(universe)
		}
		outside := 3*size + rng.Intn(size+1) // in no universe above
		var sums []uint64
		switch kind := rng.Intn(6); kind {
		case 0, 1: // a set from the universe, oversize for c > k
			c := rng.Intn(min(k, 2) + 2)
			sums, err = rec.Encode(sampleDistinct(rng, universe, c))
		case 2: // partly outside the universe
			set := append(sampleDistinct(rng, universe, rng.Intn(2)), outside)
			sums, err = rec.Encode(set)
		case 3: // random count-1/2 sums
			sums = make([]uint64, rec.Len())
			sums[0] = uint64(1 + rng.Intn(2))
			for j := 1; j < len(sums); j++ {
				sums[j] = uint64(rng.Int63n(p))
			}
		case 4: // forged {x, x}
			x := universe[rng.Intn(size)]
			sums, err = rec.Encode([]int{x, x})
		case 5: // a valid sketch with one word corrupted
			sums, err = rec.Encode(sampleDistinct(rng, universe, rng.Intn(min(k, 2)+1)))
			j := rng.Intn(len(sums))
			sums[j] = (sums[j] + 1 + uint64(rng.Int63n(p-1))) % p
		}
		if err != nil {
			t.Fatal(err)
		}
		got, gotOK := rec.Decode(sums, universe)
		want, wantOK := decodeByScan(rec, sums, universe)
		if gotOK != wantOK || !slices.Equal(got, want) {
			t.Fatalf("case %d: k=%d universe %v sums %v: Decode = %v, %v; scan = %v, %v",
				i, k, universe, sums, got, gotOK, want, wantOK)
		}
		if gotOK && len(got) == 2 {
			decoded++
		}
	}
	if decoded < 1000 {
		t.Fatalf("only %d two-element decodes: the cases miss the closed form's main path", decoded)
	}
}

// sampleDistinct returns c distinct elements of universe in random order.
func sampleDistinct(rng *rand.Rand, universe []int, c int) []int {
	set := make([]int, 0, c)
	for _, i := range rng.Perm(len(universe)) {
		if len(set) == c {
			break
		}
		set = append(set, universe[i])
	}
	return set
}

func TestRecovererLinearity(t *testing.T) {
	rec, err := NewRecoverer(6)
	if err != nil {
		t.Fatal(err)
	}
	universe := []int{10, 20, 30, 40, 50, 60}
	a, err := rec.Encode([]int{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rec.Encode([]int{20, 50, 60})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rec.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rec.Decode(sum, universe)
	if !ok || len(got) != 5 {
		t.Fatalf("Decode(union) = %v, ok=%v; want 5 elements", got, ok)
	}
}

func TestRecovererRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(6)
		rec, err := NewRecoverer(k)
		if err != nil {
			return false
		}
		universe := rng.Perm(200)[:50]
		size := rng.Intn(k + 1)
		set := append([]int(nil), universe[:size]...)
		sums, err := rec.Encode(set)
		if err != nil {
			return false
		}
		got, ok := rec.Decode(sums, universe)
		if !ok || len(got) != len(set) {
			return false
		}
		want := make(map[int]bool, len(set))
		for _, x := range set {
			want[x] = true
		}
		for _, x := range got {
			if !want[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestRecovererInverses holds the table of 1/m that NewRecoverer makes
// once to Field.Inv.
func TestRecovererInverses(t *testing.T) {
	const k = 1000
	rec, err := NewRecoverer(k)
	if err != nil {
		t.Fatal(err)
	}
	for m := 1; m <= k; m++ {
		want, err := rec.field.Inv(uint64(m))
		if err != nil {
			t.Fatal(err)
		}
		if rec.inv[m] != want {
			t.Fatalf("inv[%d] = %d, Field.Inv gives %d", m, rec.inv[m], want)
		}
	}
}

func TestRecovererValidation(t *testing.T) {
	if _, err := NewRecoverer(0); err == nil {
		t.Error("NewRecoverer(0) succeeded")
	}
	rec, err := NewRecoverer(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Encode([]int{-1}); err == nil {
		t.Error("Encode of negative element succeeded")
	}
	if _, err := rec.Add([]uint64{1}, []uint64{1}); err == nil {
		t.Error("Add with wrong lengths succeeded")
	}
}

// runSketch executes the sketch-connectivity algorithm on g and compares
// against ground truth.
func runSketch(t *testing.T, g *graph.Graph, a int, wantDone bool) {
	t.Helper()
	algo, err := NewConnectivity(a)
	if err != nil {
		t.Fatal(err)
	}
	in, err := bcc.NewKT1(bcc.SequentialIDs(g.N()), g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bcc.Run(in, algo)
	if err != nil {
		t.Fatal(err)
	}
	if !wantDone {
		if res.Verdict != bcc.VerdictNo {
			t.Error("promise violation should force NO")
		}
		for _, l := range res.Labels {
			if l != -1 {
				t.Fatal("promise violation should force label −1")
			}
		}
		return
	}
	wantVerdict := bcc.VerdictNo
	if g.IsConnected() {
		wantVerdict = bcc.VerdictYes
	}
	if res.Verdict != wantVerdict {
		t.Errorf("verdict = %v, want %v", res.Verdict, wantVerdict)
	}
	wantLabels := g.ComponentLabels()
	for v := range wantLabels {
		if res.Labels[v] != wantLabels[v] {
			t.Errorf("label[%d] = %d, want %d", v, res.Labels[v], wantLabels[v])
		}
	}
}

func TestConnectivityOnStars(t *testing.T) {
	// The star is the motivating case: the centre has degree n−1, far
	// above any constant bound, yet arboricity is 1 — leaves peel first,
	// then the centre's live degree collapses to 0.
	for _, n := range []int{5, 12, 24} {
		star := graph.New(n)
		for i := 1; i < n; i++ {
			star.MustAddEdge(0, i)
		}
		runSketch(t, star, 1, true)
	}
}

func TestConnectivityOnTreesAndForests(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(20)
		g := graph.New(n)
		// Random forest: each vertex ≥ 1 attaches to a random earlier
		// vertex with probability 3/4.
		for v := 1; v < n; v++ {
			if rng.Intn(4) > 0 {
				g.MustAddEdge(v, rng.Intn(v))
			}
		}
		runSketch(t, g, 1, true)
	}
}

func TestConnectivityOnCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(14)
		runSketch(t, graph.RandomOneCycle(n, rng), 2, true)
		cover := graph.RandomCycleCover(n, rng)
		runSketch(t, cover, 2, true)
	}
}

func TestConnectivityPromiseViolationDetected(t *testing.T) {
	// K9 has arboricity 5 > 1; with every degree 8 > 4·1 nobody ever
	// transmits, and the failure must be detected, not mis-answered.
	n := 9
	k := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			k.MustAddEdge(u, v)
		}
	}
	runSketch(t, k, 1, false)
	// With the right arboricity promise the same clique decodes fine.
	runSketch(t, k, 5, true)
}

func TestConnectivityRoundsFormula(t *testing.T) {
	algo, err := NewConnectivity(2)
	if err != nil {
		t.Fatal(err)
	}
	// phases(64) = 7, sketch length = 17.
	if got := algo.Rounds(64); got != 7*17 {
		t.Errorf("Rounds(64) = %d, want %d", got, 7*17)
	}
	if algo.Bandwidth() != 31 {
		t.Errorf("Bandwidth = %d, want 31", algo.Bandwidth())
	}
}

func TestConnectivityValidation(t *testing.T) {
	if _, err := NewConnectivity(0); err == nil {
		t.Error("NewConnectivity(0) succeeded")
	}
}

func BenchmarkRecovererDecode(b *testing.B) {
	rec, err := NewRecoverer(8)
	if err != nil {
		b.Fatal(err)
	}
	universe := make([]int, 256)
	for i := range universe {
		universe[i] = i
	}
	sums, err := rec.Encode([]int{3, 77, 150, 201, 255})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := rec.Decode(sums, universe); !ok {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkSketchConnectivity64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomOneCycle(48, rng)
	in, err := bcc.NewKT1(bcc.SequentialIDs(48), g)
	if err != nil {
		b.Fatal(err)
	}
	algo, err := NewConnectivity(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bcc.Run(in, algo)
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != bcc.VerdictYes {
			b.Fatal("wrong verdict")
		}
	}
}
