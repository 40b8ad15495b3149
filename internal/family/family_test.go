package family

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"bcclique/internal/graph"
)

// testSizes returns sizes every family supports, spanning the sweep
// range the grids use.
func testSizes(f *Family) []int {
	var sizes []int
	for _, n := range []int{8, 12, 16, 32} {
		if n >= f.MinN() {
			sizes = append(sizes, n)
		}
	}
	return sizes
}

// TestDeterministicBuild pins the determinism contract: two builds with
// the same (n, seed) are byte-identical graphs, and a different seed
// produces a different graph for every randomized family.
func TestDeterministicBuild(t *testing.T) {
	for _, f := range All() {
		for _, n := range testSizes(f) {
			g1, err := f.Build(n, 7)
			if err != nil {
				t.Fatalf("%s n=%d: %v", f.Name(), n, err)
			}
			g2, err := f.Build(n, 7)
			if err != nil {
				t.Fatalf("%s n=%d rebuild: %v", f.Name(), n, err)
			}
			if !g1.Equal(g2) {
				t.Errorf("%s n=%d: two builds with seed 7 differ", f.Name(), n)
			}
			if g1.Key() != g2.Key() {
				t.Errorf("%s n=%d: canonical encodings differ under one seed", f.Name(), n)
			}
		}
	}
}

// TestSeedChangesRandomFamilies checks that the seed actually drives the
// randomized generators (deterministic degenerates are exempt).
func TestSeedChangesRandomFamilies(t *testing.T) {
	deterministic := map[string]bool{"star": true, "path": true, "grid": true, "torus": true, "barbell": true}
	for _, f := range All() {
		if deterministic[f.Name()] {
			continue
		}
		n := 32
		differs := false
		base, err := f.Build(n, 1)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		for seed := int64(2); seed <= 5; seed++ {
			g, err := f.Build(n, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", f.Name(), seed, err)
			}
			if !base.Equal(g) {
				differs = true
				break
			}
		}
		if !differs {
			t.Errorf("%s: seeds 1..5 all produce the same graph", f.Name())
		}
	}
}

// TestDeclaredInvariantsHold builds every family at several sizes and
// seeds and re-checks the declared invariants explicitly (Build already
// checks; this pins that Check itself verifies what each family
// declares).
func TestDeclaredInvariantsHold(t *testing.T) {
	for _, f := range All() {
		inv := f.Invariants()
		for _, n := range testSizes(f) {
			for seed := int64(1); seed <= 3; seed++ {
				g, err := f.Build(n, seed)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", f.Name(), n, seed, err)
				}
				if err := f.Check(g, n); err != nil {
					t.Errorf("%s n=%d seed=%d: %v", f.Name(), n, seed, err)
				}
				if inv.Connected == Yes && !g.IsConnected() {
					t.Errorf("%s n=%d seed=%d: not connected", f.Name(), n, seed)
				}
				if inv.Connected == No && g.IsConnected() {
					t.Errorf("%s n=%d seed=%d: unexpectedly connected", f.Name(), n, seed)
				}
				if inv.Components > 0 && g.NumComponents() != inv.Components {
					t.Errorf("%s n=%d seed=%d: %d components, declared %d",
						f.Name(), n, seed, g.NumComponents(), inv.Components)
				}
				if inv.MaxArboricity > 0 && !ForestPartition(g, inv.MaxArboricity) {
					t.Errorf("%s n=%d seed=%d: no %d-forest partition", f.Name(), n, seed, inv.MaxArboricity)
				}
			}
		}
	}
}

// TestCheckRejectsViolations makes sure Check is not a rubber stamp.
func TestCheckRejectsViolations(t *testing.T) {
	star, _ := Lookup("star")
	g := graph.New(8) // edgeless: disconnected, violates the star invariants
	if err := star.Check(g, 8); err == nil {
		t.Error("Check accepted a disconnected graph for a connected family")
	}
	if err := star.Check(g, 9); err == nil {
		t.Error("Check accepted a wrong vertex count")
	}
	planted, _ := Lookup("planted-2")
	one, err := Lookup("one-cycle")
	if !err {
		t.Fatal("one-cycle missing")
	}
	cyc, buildErr := one.Build(8, 1)
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	if err := planted.Check(cyc, 8); err == nil {
		t.Error("Check accepted a connected graph for planted-2")
	}
}

// TestCrossedTwoCyclePairsWithTwoCycle pins the crossing relationship:
// the crossed family at (n, seed) differs from the two-cycle family at
// the same (n, seed) in exactly four edges, and merges its two cycles
// into one.
func TestCrossedTwoCyclePairsWithTwoCycle(t *testing.T) {
	crossed, _ := Lookup("crossed-two-cycle")
	for _, n := range []int{6, 10, 16} {
		for seed := int64(1); seed <= 3; seed++ {
			g, err := crossed.Build(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			lengths, ok := g.CycleLengths()
			if !ok || len(lengths) != 1 || lengths[0] != n {
				t.Errorf("n=%d seed=%d: crossed graph is not a single %d-cycle (%v)", n, seed, n, lengths)
			}
		}
	}
}

// TestForestPartition sanity-checks the arboricity witness on graphs
// with known arboricity.
func TestForestPartition(t *testing.T) {
	// A tree fits one forest.
	path := graph.New(5)
	for i := 1; i < 5; i++ {
		path.MustAddEdge(i-1, i)
	}
	if !ForestPartition(path, 1) {
		t.Error("path should fit 1 forest")
	}
	// K4 has arboricity 2: 6 edges > 3 = n−1 rules out 1 forest.
	k4 := graph.New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			k4.MustAddEdge(u, v)
		}
	}
	if ForestPartition(k4, 1) {
		t.Error("K4 cannot fit 1 forest")
	}
	if !ForestPartition(k4, 2) {
		t.Error("K4 should fit 2 forests")
	}
}

// TestForestPartitionMatchesNashWilliams pins the exactness claim on
// small random graphs, dense enough that edges must be displaced between
// forests: ForestPartition(g, a) must agree with the Nash-Williams
// formula, arboricity(g) = max over vertex sets S with |S| ≥ 2 of
// ⌈m(S)/(|S|−1)⌉, enumerated by bitmask.
func TestForestPartitionMatchesNashWilliams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(10)
		density := rng.Float64()
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < density {
					g.MustAddEdge(u, v)
				}
			}
		}
		arb := nashWilliams(g)
		for a := 1; a <= 4; a++ {
			if got := ForestPartition(g, a); got != (arb <= a) {
				t.Fatalf("trial %d (n=%d, m=%d, arboricity %d): ForestPartition(g, %d) = %v",
					trial, n, g.M(), arb, a, got)
			}
		}
	}
}

// nashWilliams is the brute-force arboricity oracle: the densest vertex
// subset's ⌈m(S)/(|S|−1)⌉.
func nashWilliams(g *graph.Graph) int {
	edges := g.Edges()
	arb := 0
	for set := uint(1); set < 1<<g.N(); set++ {
		size := bits.OnesCount(set)
		if size < 2 {
			continue
		}
		m := 0
		for _, e := range edges {
			if set>>e.U&1 == 1 && set>>e.V&1 == 1 {
				m++
			}
		}
		arb = max(arb, (m+size-2)/(size-1))
	}
	return arb
}

// TestKeyGolden pins the canonical cache-key encoding of every family:
// these strings feed the content-addressed result cache, so an
// accidental change here would silently invalidate (or worse, silently
// reuse) every cached sweep cell. Change a family's params or version
// deliberately, then update this table in the same commit.
func TestKeyGolden(t *testing.T) {
	want := map[string]string{
		"one-cycle":         "family=one-cycle;v=1;minn=3;params{kind=hamiltonian-cycle}",
		"two-cycle":         "family=two-cycle;v=1;minn=6;params{kind=two-cycle;split=n/2}",
		"crossed-two-cycle": "family=crossed-two-cycle;v=1;minn=6;params{kind=two-cycle-crossed;split=n/2}",
		"er-threshold":      "family=er-threshold;v=1;minn=4;params{p=ln(n)/n}",
		"er-sub":            "family=er-sub;v=1;minn=4;params{p=0.5*ln(n)/n}",
		"er-super":          "family=er-super;v=1;minn=4;params{p=2*ln(n)/n}",
		"planted-2":         "family=planted-2;v=1;minn=4;params{k=2}",
		"planted-4":         "family=planted-4;v=1;minn=8;params{k=4}",
		"forest-2":          "family=forest-2;v=1;minn=4;params{a=2;base=spanning-tree}",
		"forest-3":          "family=forest-3;v=1;minn=4;params{a=3;base=spanning-tree}",
		"grid":              "family=grid;v=1;minn=2;params{rows=maxdiv(n)}",
		"torus":             "family=torus;v=1;minn=3;params{rows=maxdiv(n);wrap=dims>=3}",
		"4-regular":         "family=4-regular;v=1;minn=6;params{d=4;model=pairing}",
		"star":              "family=star;v=1;minn=2;params{center=0}",
		"path":              "family=path;v=1;minn=2;params{order=0..n-1}",
		"barbell":           "family=barbell;v=1;minn=6;params{cliques=n/2;bridge=1}",
	}
	fams := All()
	if len(fams) != len(want) {
		t.Fatalf("registry has %d families, golden table has %d", len(fams), len(want))
	}
	for _, f := range fams {
		if got := f.Key(); got != want[f.Name()] {
			t.Errorf("%s key = %q, want %q", f.Name(), got, want[f.Name()])
		}
	}
}

// TestLookupAndNames covers the registry surface.
func TestLookupAndNames(t *testing.T) {
	names := Names()
	if len(names) != len(All()) {
		t.Fatal("Names and All disagree")
	}
	for _, name := range names {
		f, ok := Lookup(name)
		if !ok || f.Name() != name {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted an unknown name")
	}
	if d := Describe(); !strings.Contains(d, "one-cycle") {
		t.Errorf("Describe() = %q", d)
	}
}

// TestBuildRejectsTooSmall pins the MinN guard.
func TestBuildRejectsTooSmall(t *testing.T) {
	two, _ := Lookup("two-cycle")
	if _, err := two.Build(5, 1); err == nil {
		t.Error("two-cycle accepted n=5")
	}
}
