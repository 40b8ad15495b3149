package dsu

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewSingletons(t *testing.T) {
	d := New(5)
	if got, want := d.Sets(), 5; got != want {
		t.Fatalf("Sets() = %d, want %d", got, want)
	}
	for i := 0; i < 5; i++ {
		if got := d.Find(i); got != i {
			t.Errorf("Find(%d) = %d, want %d", i, got, i)
		}
	}
}

func TestUnionFind(t *testing.T) {
	tests := []struct {
		name     string
		n        int
		unions   [][2]int
		wantSets int
		same     [][2]int
		notSame  [][2]int
	}{
		{
			name:     "chain",
			n:        6,
			unions:   [][2]int{{0, 1}, {1, 2}, {2, 3}},
			wantSets: 3,
			same:     [][2]int{{0, 3}, {1, 2}},
			notSame:  [][2]int{{0, 4}, {4, 5}},
		},
		{
			name:     "two components",
			n:        4,
			unions:   [][2]int{{0, 1}, {2, 3}},
			wantSets: 2,
			same:     [][2]int{{0, 1}, {2, 3}},
			notSame:  [][2]int{{0, 2}, {1, 3}},
		},
		{
			name:     "all merged",
			n:        3,
			unions:   [][2]int{{0, 1}, {1, 2}, {0, 2}},
			wantSets: 1,
			same:     [][2]int{{0, 2}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := New(tt.n)
			for _, u := range tt.unions {
				d.Union(u[0], u[1])
			}
			if got := d.Sets(); got != tt.wantSets {
				t.Errorf("Sets() = %d, want %d", got, tt.wantSets)
			}
			for _, p := range tt.same {
				if !d.Same(p[0], p[1]) {
					t.Errorf("Same(%d,%d) = false, want true", p[0], p[1])
				}
			}
			for _, p := range tt.notSame {
				if d.Same(p[0], p[1]) {
					t.Errorf("Same(%d,%d) = true, want false", p[0], p[1])
				}
			}
		})
	}
}

func TestUnionReportsMerge(t *testing.T) {
	d := New(3)
	if !d.Union(0, 1) {
		t.Error("first Union(0,1) = false, want true")
	}
	if d.Union(0, 1) {
		t.Error("second Union(0,1) = true, want false")
	}
	if d.Union(1, 0) {
		t.Error("Union(1,0) after Union(0,1) = true, want false")
	}
}

func TestLabelsAreMinima(t *testing.T) {
	d := New(6)
	d.Union(3, 5)
	d.Union(1, 2)
	d.Union(2, 5) // now {1,2,3,5}, {0}, {4}
	want := []int32{0, 1, 1, 1, 4, 1}
	got := d.Least(nil)
	if !slices.Equal(got, want) {
		t.Fatalf("Least(nil) = %v, want %v", got, want)
	}
	// A pooled run hands back its last, dirty slice, with more capacity
	// than the universe needs: Least must reuse it and overwrite every
	// entry.
	dirty := []int32{9, 9, 9, 9, 9, 9, 9, 9, 9, 9}
	got = d.Least(dirty[:2])
	if !slices.Equal(got, want) {
		t.Fatalf("Least(dirty) = %v, want %v", got, want)
	}
	if &got[0] != &dirty[0] {
		t.Error("Least(dirty) allocated although dirty had room")
	}
}

func TestReset(t *testing.T) {
	d := New(4)
	d.Union(0, 1)
	d.Union(2, 3)
	for _, n := range []int{4, 2, 6} {
		d.Reset(n)
		if d.Len() != n || d.Sets() != n {
			t.Fatalf("after Reset(%d): Len() = %d, Sets() = %d", n, d.Len(), d.Sets())
		}
		if d.Same(0, 1) {
			t.Fatalf("Same(0,1) after Reset(%d) = true, want false", n)
		}
		d.Union(0, 1)
	}
}

// TestCompactSizes pins the negated-size root encoding: unioning a
// chain keeps Sets consistent and every element finds the same root.
func TestCompactSizes(t *testing.T) {
	const n = 64
	d := New(n)
	for i := 1; i < n; i++ {
		if !d.Union(0, i) {
			t.Fatalf("Union(0,%d) reported no merge", i)
		}
		if d.Union(0, i) {
			t.Fatalf("repeated Union(0,%d) reported a merge", i)
		}
	}
	if d.Sets() != 1 {
		t.Fatalf("Sets() = %d after chaining all elements", d.Sets())
	}
	root := d.Find(0)
	for i := 0; i < n; i++ {
		if d.Find(i) != root {
			t.Fatalf("Find(%d) = %d, want %d", i, d.Find(i), root)
		}
	}
}

// TestAgainstNaive compares DSU against a naive quadratic labelling under
// random union sequences: Same, Sets and Least must all agree with it.
func TestAgainstNaive(t *testing.T) {
	const n = 40
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(n)
		naive := make([]int, n)
		for i := range naive {
			naive[i] = i
		}
		for k := 0; k < 60; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			d.Union(a, b)
			la, lb := naive[a], naive[b]
			if la != lb {
				for i := range naive {
					if naive[i] == lb {
						naive[i] = la
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if d.Same(i, j) != (naive[i] == naive[j]) {
					return false
				}
			}
		}
		// Set count and smallest members must agree too.
		distinct := make(map[int]bool)
		least := d.Least(nil)
		for i, l := range naive {
			distinct[l] = true
			lo := i
			for j := range naive {
				if naive[j] == l && j < lo {
					lo = j
				}
			}
			if int(least[i]) != lo {
				return false
			}
		}
		return d.Sets() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1024
	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(n)
		for _, p := range pairs {
			d.Union(p[0], p[1])
		}
	}
}
