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

// decodeByScan is the reference decode: it evaluates the polynomial at
// every universe element, requires exactly c roots and re-encodes them
// with Encode. decode must agree with it whatever candidates it gets.
func decodeByScan(r *Recoverer, sums []uint64, universe []int) ([]int, bool) {
	a, ok := r.monic(nil, sums)
	if !ok {
		return nil, false
	}
	f := r.field
	var set []int
	for _, x := range universe {
		if x < 0 || uint64(x) >= f.P() {
			continue
		}
		acc := uint64(1)
		for _, c := range a[1:] {
			acc = f.Add(f.Mul(acc, uint64(x)), c)
		}
		if acc == 0 {
			set = append(set, x)
		}
	}
	if len(set) != len(a)-1 {
		return nil, false
	}
	check, err := r.Encode(set)
	if err != nil || !slices.Equal(check, sums) {
		return nil, false
	}
	return set, true
}

// TestDecodeClosedFormMatchesScan is the differential test of decode
// against the full scan: for k = 1..8 and sorted and unsorted universes
// of distinct elements, decode with candidates and Decode without must
// both return the scan's set, in the same order, and the same ok. The
// sketches cover sets of up to k+1 elements drawn from the universe,
// sets partly outside it, random count-1 and count-2 sums (most have no
// root in GF(p), half of the count-2 ones a discriminant that is not a
// square), forged {x, x} and {x, x, y} sums, corrupted words and oversize
// sets. The candidates mix the set's own positions, some of them listed
// twice, with random positions; a forged multiset's repeated element is
// a candidate root that divides out twice.
func TestDecodeClosedFormMatchesScan(t *testing.T) {
	const p = 1<<31 - 1
	rng := rand.New(rand.NewSource(18))
	var decoded [3]int // ok results with 1, 2 and more elements
	for i := 0; i < 40000; i++ {
		k := 1 + i%8
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
		var set []int                        // the elements encoded, if any
		var sums []uint64
		switch kind := rng.Intn(6); kind {
		case 0, 1: // a set from the universe, oversize for c > k
			set = sampleDistinct(rng, universe, rng.Intn(k+2))
			sums, err = rec.Encode(set)
		case 2: // partly outside the universe
			set = append(sampleDistinct(rng, universe, rng.Intn(k)), outside)
			sums, err = rec.Encode(set)
		case 3: // random count-1/2 sums
			sums = make([]uint64, rec.Len())
			sums[0] = uint64(1 + rng.Intn(2))
			for j := 1; j < len(sums); j++ {
				sums[j] = uint64(rng.Int63n(p))
			}
		case 4: // forged {x, x} or {x, x, y}
			x := universe[rng.Intn(size)]
			set = append([]int{x, x}, sampleDistinct(rng, universe, rng.Intn(2))...)
			sums, err = rec.Encode(set)
		case 5: // a valid sketch with one word corrupted
			set = sampleDistinct(rng, universe, rng.Intn(k+1))
			sums, err = rec.Encode(set)
			j := rng.Intn(len(sums))
			sums[j] = (sums[j] + 1 + uint64(rng.Int63n(p-1))) % p
		}
		if err != nil {
			t.Fatal(err)
		}
		cands := candidates(rng, universe, set)
		want, wantOK := decodeByScan(rec, sums, universe)
		pos, gotOK := rec.decode(nil, sums, universe, cands)
		var got []int
		for _, j := range pos {
			got = append(got, universe[j])
		}
		if gotOK != wantOK || !slices.Equal(got, want) {
			t.Fatalf("case %d: k=%d universe %v sums %v candidates %v: decode = %v, %v; scan = %v, %v",
				i, k, universe, sums, cands, got, gotOK, want, wantOK)
		}
		if got, gotOK := rec.Decode(sums, universe); gotOK != wantOK || !slices.Equal(got, want) {
			t.Fatalf("case %d: k=%d universe %v sums %v: Decode = %v, %v; scan = %v, %v",
				i, k, universe, sums, got, gotOK, want, wantOK)
		}
		if gotOK && len(got) > 0 {
			decoded[min(len(got), 3)-1]++
		}
	}
	for c, n := range decoded {
		if n < 1000 {
			t.Fatalf("only %d decodes of %d elements or more: the cases miss a main path", n, c+1)
		}
	}
}

// candidates returns candidate positions for a sketch of set: each of
// the set's elements in the universe once, twice or not at all, and up
// to three random positions, in random order.
func candidates(rng *rand.Rand, universe []int, set []int) []int32 {
	var cands []int32
	for _, x := range set {
		if i := slices.Index(universe, x); i >= 0 {
			for n := rng.Intn(3); n > 0; n-- {
				cands = append(cands, int32(i))
			}
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		cands = append(cands, int32(rng.Intn(len(universe))))
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return cands
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

// TestBareNodeRejectsShortRow drives bare nodes by hand on a 12-cycle
// at a = 1 and silences one port of one receiver for one round of
// phase 1. The sender behind that port leaves a row one word short in
// the receiver's run, which Decode rejects, so the sender never retires
// there: the receiver answers NO and label −1 (detectably, never
// silently wrong), while a bystander, like every vertex of the honest
// run, labels the cycle 0.
func TestBareNodeRejectsShortRow(t *testing.T) {
	const n, receiver, bystander, silentRound = 12, 5, 9, 3
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.MustAddEdge(v, (v+1)%n)
	}
	in, err := bcc.NewKT1(bcc.SequentialIDs(n), g)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := NewConnectivity(1)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := bcc.Run(in, algo)
	if err != nil {
		t.Fatal(err)
	}
	if honest.Verdict != bcc.VerdictYes {
		t.Fatalf("honest run verdict %v, want YES", honest.Verdict)
	}
	for v, l := range honest.Labels {
		if l != 0 {
			t.Fatalf("honest run: vertex %d label %d, want 0", v, l)
		}
	}

	nodes := make([]bcc.Node, n)
	for v := range nodes {
		nodes[v] = algo.NewNode(in.View(v), nil)
	}
	sends := make([]bcc.Message, n)
	inbox := make([]bcc.Message, n-1)
	for r := 1; r <= algo.Rounds(n); r++ {
		for v, node := range nodes {
			sends[v] = node.Send(r)
		}
		for v, node := range nodes {
			for p := range inbox {
				inbox[p] = sends[in.NeighborAt(v, p)]
			}
			if v == receiver && r == silentRound {
				inbox[0] = bcc.Silence
			}
			node.Receive(r, inbox)
		}
	}
	for _, c := range []struct {
		v       int
		label   int
		verdict bcc.Verdict
	}{{receiver, -1, bcc.VerdictNo}, {bystander, 0, bcc.VerdictYes}} {
		if got := nodes[c.v].(bcc.Labeler).Label(); got != c.label {
			t.Errorf("vertex %d label %d, want %d", c.v, got, c.label)
		}
		if got := nodes[c.v].(bcc.Decider).Decide(); got != c.verdict {
			t.Errorf("vertex %d verdict %v, want %v", c.v, got, c.verdict)
		}
	}
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
