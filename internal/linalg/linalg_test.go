package linalg

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewModMatrixValidation(t *testing.T) {
	tests := []struct {
		name    string
		rows    int
		cols    int
		p       uint64
		wantErr bool
	}{
		{name: "default prime", rows: 2, cols: 2, p: DefaultPrime, wantErr: false},
		{name: "small prime", rows: 2, cols: 2, p: 7, wantErr: false},
		{name: "composite", rows: 2, cols: 2, p: 9, wantErr: true},
		{name: "too large", rows: 2, cols: 2, p: 1 << 33, wantErr: true},
		{name: "negative dims", rows: -1, cols: 2, p: 7, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewModMatrix(tt.rows, tt.cols, tt.p)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewModMatrix error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSetReducesNegatives(t *testing.T) {
	m, err := NewModMatrix(1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(0, 0, -3)
	if got := m.At(0, 0); got != 4 {
		t.Errorf("At(0,0) = %d, want 4 (−3 mod 7)", got)
	}
}

func TestModRankBasics(t *testing.T) {
	tests := []struct {
		name string
		rows [][]int64
		want int
	}{
		{name: "identity 3", rows: [][]int64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, want: 3},
		{name: "zero", rows: [][]int64{{0, 0}, {0, 0}}, want: 0},
		{name: "dependent rows", rows: [][]int64{{1, 2, 3}, {2, 4, 6}, {0, 1, 1}}, want: 2},
		{name: "wide", rows: [][]int64{{1, 2, 3, 4}}, want: 1},
		{name: "tall dependent", rows: [][]int64{{1, 1}, {2, 2}, {3, 3}}, want: 1},
		{name: "full 2x2", rows: [][]int64{{1, 2}, {3, 4}}, want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := NewModMatrix(len(tt.rows), len(tt.rows[0]), DefaultPrime)
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range tt.rows {
				for j, x := range row {
					m.Set(i, j, x)
				}
			}
			if got := m.Rank(); got != tt.want {
				t.Errorf("Rank() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestRankNonDestructive(t *testing.T) {
	m, err := NewModMatrix(2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	_ = m.Rank()
	if m.At(1, 0) != 3 || m.At(1, 1) != 4 {
		t.Error("Rank() modified the receiver")
	}
}

func TestBareissRank(t *testing.T) {
	tests := []struct {
		name string
		rows [][]int64
		want int
	}{
		{name: "identity", rows: [][]int64{{1, 0}, {0, 1}}, want: 2},
		{name: "singular", rows: [][]int64{{2, 4}, {1, 2}}, want: 1},
		{name: "hilbert-ish", rows: [][]int64{{6, 3, 2}, {3, 2, 1}, {2, 1, 1}}, want: 3},
		{name: "zero row", rows: [][]int64{{0, 0, 0}, {1, 5, -2}}, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := NewIntMatrix(len(tt.rows), len(tt.rows[0]))
			for i, row := range tt.rows {
				for j, x := range row {
					m.Set(i, j, x)
				}
			}
			if got := m.Rank(); got != tt.want {
				t.Errorf("Rank() = %d, want %d", got, tt.want)
			}
		})
	}
}

// TestModRankMatchesBareiss compares the modular rank to the exact rank on
// random small 0/±small matrices. With entries this small and p = 2³¹−1,
// rank mod p equals rank over ℚ for random matrices essentially always;
// any mismatch here signals an elimination bug.
func TestModRankMatchesBareiss(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(7)
		cols := 1 + rng.Intn(7)
		mm, err := NewModMatrix(rows, cols, DefaultPrime)
		if err != nil {
			return false
		}
		bm := NewIntMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				x := int64(rng.Intn(7)) - 3
				mm.Set(i, j, x)
				bm.Set(i, j, x)
			}
		}
		return mm.Rank() == bm.Rank()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRankDropsModSmallPrime exhibits the soundness direction: rank over
// GF(p) can be smaller than over ℚ but never larger.
func TestRankDropsModSmallPrime(t *testing.T) {
	// [[1,1],[1,-1]] has rank 2 over ℚ but rank 1 over GF(2).
	m2 := NewGF2Matrix(2, 2)
	m2.Set(0, 0, true)
	m2.Set(0, 1, true)
	m2.Set(1, 0, true)
	m2.Set(1, 1, true) // -1 ≡ 1 mod 2
	if got := m2.Rank(); got != 1 {
		t.Errorf("GF(2) rank = %d, want 1", got)
	}
	bm := NewIntMatrix(2, 2)
	bm.Set(0, 0, 1)
	bm.Set(0, 1, 1)
	bm.Set(1, 0, 1)
	bm.Set(1, 1, -1)
	if got := bm.Rank(); got != 2 {
		t.Errorf("exact rank = %d, want 2", got)
	}
}

func TestGF2Rank(t *testing.T) {
	tests := []struct {
		name string
		rows [][]int
		want int
	}{
		{name: "identity", rows: [][]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, want: 3},
		{name: "xor dependent", rows: [][]int{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}}, want: 2},
		{name: "zero", rows: [][]int{{0, 0}, {0, 0}}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := NewGF2Matrix(len(tt.rows), len(tt.rows[0]))
			for i, row := range tt.rows {
				for j, x := range row {
					m.Set(i, j, x == 1)
				}
			}
			if got := m.Rank(); got != tt.want {
				t.Errorf("Rank() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestGF2WideMatrix(t *testing.T) {
	// Cross the 64-bit word boundary.
	m := NewGF2Matrix(3, 130)
	m.Set(0, 0, true)
	m.Set(1, 64, true)
	m.Set(2, 129, true)
	if got := m.Rank(); got != 3 {
		t.Errorf("Rank() = %d, want 3", got)
	}
	if !m.At(1, 64) || m.At(1, 63) {
		t.Error("At() misreads word-boundary bits")
	}
}

func TestModularArithmetic(t *testing.T) {
	p := DefaultPrime
	if got := mulMod(p-1, p-1, p); got != 1 {
		t.Errorf("(-1)·(-1) mod p = %d, want 1", got)
	}
	for _, a := range []uint64{1, 2, 12345, p - 1} {
		inv := modInverse(a, p)
		if mulMod(a, inv, p) != 1 {
			t.Errorf("a·a⁻¹ ≠ 1 for a = %d", a)
		}
	}
	if got := powMod(3, 4, 1000003); got != 81 {
		t.Errorf("3^4 = %d, want 81", got)
	}
}

// TestMulModFoldMatchesDivide holds the Mersenne fold modulo
// DefaultPrime to the 128-bit divide every other modulus takes, on the
// extremes of the reduced range and on random reduced pairs.
func TestMulModFoldMatchesDivide(t *testing.T) {
	p := DefaultPrime
	divide := func(a, b uint64) uint64 {
		hi, lo := bits.Mul64(a, b)
		_, rem := bits.Div64(hi, lo, p)
		return rem
	}
	edges := []uint64{0, 1, 2, 1 << 30, 1<<31 - 3, p - 2, p - 1}
	for _, a := range edges {
		for _, b := range edges {
			if got, want := mulMod(a, b, p), divide(a, b); got != want {
				t.Fatalf("mulMod(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 100000; i++ {
		a, b := uint64(rng.Int63n(int64(p))), uint64(rng.Int63n(int64(p)))
		if got, want := mulMod(a, b, p), divide(a, b); got != want {
			t.Fatalf("mulMod(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
}

func TestRankBoundedByDims(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(10)
		cols := 1 + rng.Intn(10)
		m, err := NewModMatrix(rows, cols, 7)
		if err != nil {
			return false
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, int64(rng.Intn(7)))
			}
		}
		r := m.Rank()
		bound := rows
		if cols < bound {
			bound = cols
		}
		return r >= 0 && r <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkModRank200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewModMatrix(200, 200, DefaultPrime)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		for j := 0; j < 200; j++ {
			m.Set(i, j, int64(rng.Intn(2)))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Rank()
	}
}

func BenchmarkGF2Rank512(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewGF2Matrix(512, 512)
	for i := 0; i < 512; i++ {
		for j := 0; j < 512; j++ {
			m.Set(i, j, rng.Intn(2) == 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Rank()
	}
}
