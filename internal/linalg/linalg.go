// Package linalg provides the exact linear algebra behind the paper's
// KT-1 communication lower bounds: matrix rank over a prime field GF(p),
// exact fraction-free (Bareiss) rank over the integers, and rank over
// GF(2).
//
// The paper needs rank(M_n) = B_n (Theorem 2.3, Dowling–Wilson) and
// rank(E_n) full (Lemma 4.1) over the rationals. Since reducing a matrix
// mod p can only lower its rank, full rank over GF(p) *certifies* full
// rank over ℚ; that is the soundness argument for using fast modular
// elimination on the Bell-number-sized matrices of experiments E07/E08.
package linalg

import (
	"fmt"
	"math/big"
	"math/bits"
)

// DefaultPrime is the Mersenne prime 2³¹−1 used by the rank certificates.
// Products of two reduced entries fit in a uint64, so arithmetic needs no
// big integers.
const DefaultPrime uint64 = 2147483647

// ModMatrix is a dense matrix over GF(p) for a prime p < 2³².
type ModMatrix struct {
	p    uint64
	rows int
	cols int
	data []uint64 // row-major, entries in [0, p)
}

// NewModMatrix returns a zero rows×cols matrix over GF(p). It validates
// that p is prime (so that every nonzero pivot is invertible) and small
// enough for overflow-free arithmetic.
func NewModMatrix(rows, cols int, p uint64) (*ModMatrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("linalg: negative dimensions %d×%d", rows, cols)
	}
	if p < 2 || p >= 1<<32 {
		return nil, fmt.Errorf("linalg: modulus %d outside [2, 2³²)", p)
	}
	if !new(big.Int).SetUint64(p).ProbablyPrime(32) {
		return nil, fmt.Errorf("linalg: modulus %d is not prime", p)
	}
	return &ModMatrix{p: p, rows: rows, cols: cols, data: make([]uint64, rows*cols)}, nil
}

// Rows returns the row count.
func (m *ModMatrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *ModMatrix) Cols() int { return m.cols }

// Modulus returns p.
func (m *ModMatrix) Modulus() uint64 { return m.p }

// Set assigns entry (i, j) := x mod p (x may be any int64, including
// negatives).
func (m *ModMatrix) Set(i, j int, x int64) {
	v := x % int64(m.p)
	if v < 0 {
		v += int64(m.p)
	}
	m.data[i*m.cols+j] = uint64(v)
}

// SetBit assigns entry (i, j) to 1 if b, else 0. Convenient for 0/1
// communication matrices.
func (m *ModMatrix) SetBit(i, j int, b bool) {
	if b {
		m.data[i*m.cols+j] = 1
	} else {
		m.data[i*m.cols+j] = 0
	}
}

// At returns entry (i, j) in [0, p).
func (m *ModMatrix) At(i, j int) uint64 { return m.data[i*m.cols+j] }

// Clone returns a deep copy.
func (m *ModMatrix) Clone() *ModMatrix {
	c := *m
	c.data = append([]uint64(nil), m.data...)
	return &c
}

// Rank returns the rank of the matrix over GF(p). The receiver is not
// modified. Gaussian elimination, O(rows·cols·min(rows,cols)).
func (m *ModMatrix) Rank() int {
	w := m.Clone()
	return w.rankInPlace()
}

func (w *ModMatrix) rankInPlace() int {
	p := w.p
	rank := 0
	for col := 0; col < w.cols && rank < w.rows; col++ {
		// Find a pivot at or below row `rank`.
		pivot := -1
		for r := rank; r < w.rows; r++ {
			if w.data[r*w.cols+col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			continue
		}
		if pivot != rank {
			pr := w.data[pivot*w.cols : (pivot+1)*w.cols]
			rr := w.data[rank*w.cols : (rank+1)*w.cols]
			for k := col; k < w.cols; k++ {
				pr[k], rr[k] = rr[k], pr[k]
			}
		}
		// Normalize the pivot row so the pivot is 1.
		prow := w.data[rank*w.cols : (rank+1)*w.cols]
		inv := modInverse(prow[col], p)
		for k := col; k < w.cols; k++ {
			prow[k] = mulMod(prow[k], inv, p)
		}
		// Eliminate the column below.
		for r := rank + 1; r < w.rows; r++ {
			row := w.data[r*w.cols : (r+1)*w.cols]
			f := row[col]
			if f == 0 {
				continue
			}
			for k := col; k < w.cols; k++ {
				row[k] = subMod(row[k], mulMod(f, prow[k], p), p)
			}
		}
		rank++
	}
	return rank
}

// mulMod returns a·b mod p for reduced a and b. Modulo DefaultPrime it
// folds instead of dividing: 2³¹ ≡ 1, so x ≡ x mod 2³¹ + ⌊x/2³¹⌋. The
// product of two reduced entries is at most (p−1)², which folds to at
// most 2p−3, so one conditional subtraction finishes the reduction.
func mulMod(a, b, p uint64) uint64 {
	if p == DefaultPrime {
		x := a * b
		x = x&DefaultPrime + x>>31
		if x >= DefaultPrime {
			x -= DefaultPrime
		}
		return x
	}
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi, lo, p)
	return rem
}

func subMod(a, b, p uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + p - b
}

// modInverse computes a⁻¹ mod p via Fermat's little theorem (p prime).
func modInverse(a, p uint64) uint64 {
	return powMod(a, p-2, p)
}

func powMod(base, exp, p uint64) uint64 {
	result := uint64(1)
	base %= p
	for exp > 0 {
		if exp&1 == 1 {
			result = mulMod(result, base, p)
		}
		base = mulMod(base, base, p)
		exp >>= 1
	}
	return result
}

// IntMatrix is a dense matrix of exact integers for Bareiss elimination.
type IntMatrix struct {
	rows int
	cols int
	data []*big.Int
}

// NewIntMatrix returns a zero rows×cols integer matrix.
func NewIntMatrix(rows, cols int) *IntMatrix {
	data := make([]*big.Int, rows*cols)
	for i := range data {
		data[i] = new(big.Int)
	}
	return &IntMatrix{rows: rows, cols: cols, data: data}
}

// Set assigns entry (i, j).
func (m *IntMatrix) Set(i, j int, x int64) { m.data[i*m.cols+j].SetInt64(x) }

// At returns a copy of entry (i, j).
func (m *IntMatrix) At(i, j int) *big.Int { return new(big.Int).Set(m.data[i*m.cols+j]) }

// Rank returns the exact rank over ℚ using fraction-free Bareiss
// elimination. The receiver is not modified. Intended for small matrices
// (entries grow like minors); used to cross-check the GF(p) certificates.
func (m *IntMatrix) Rank() int {
	// Work on a copy.
	w := make([]*big.Int, len(m.data))
	for i, x := range m.data {
		w[i] = new(big.Int).Set(x)
	}
	at := func(i, j int) *big.Int { return w[i*m.cols+j] }

	prev := big.NewInt(1)
	rank := 0
	tmp1, tmp2 := new(big.Int), new(big.Int)
	for col := 0; col < m.cols && rank < m.rows; col++ {
		pivot := -1
		for r := rank; r < m.rows; r++ {
			if at(r, col).Sign() != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			continue
		}
		if pivot != rank {
			for k := 0; k < m.cols; k++ {
				w[pivot*m.cols+k], w[rank*m.cols+k] = w[rank*m.cols+k], w[pivot*m.cols+k]
			}
		}
		pv := new(big.Int).Set(at(rank, col))
		for r := rank + 1; r < m.rows; r++ {
			fr := new(big.Int).Set(at(r, col))
			for k := col; k < m.cols; k++ {
				// a[r][k] = (pv·a[r][k] − fr·a[rank][k]) / prev
				tmp1.Mul(pv, at(r, k))
				tmp2.Mul(fr, at(rank, k))
				tmp1.Sub(tmp1, tmp2)
				at(r, k).Quo(tmp1, prev)
			}
		}
		prev.Set(pv)
		rank++
	}
	return rank
}

// GF2Matrix is a dense matrix over GF(2) with bit-packed rows.
type GF2Matrix struct {
	rows int
	cols int
	row  [][]uint64
}

// NewGF2Matrix returns a zero rows×cols matrix over GF(2).
func NewGF2Matrix(rows, cols int) *GF2Matrix {
	words := (cols + 63) / 64
	r := make([][]uint64, rows)
	for i := range r {
		r[i] = make([]uint64, words)
	}
	return &GF2Matrix{rows: rows, cols: cols, row: r}
}

// Set assigns entry (i, j).
func (m *GF2Matrix) Set(i, j int, b bool) {
	if b {
		m.row[i][j/64] |= 1 << uint(j%64)
	} else {
		m.row[i][j/64] &^= 1 << uint(j%64)
	}
}

// At returns entry (i, j).
func (m *GF2Matrix) At(i, j int) bool {
	return m.row[i][j/64]>>uint(j%64)&1 == 1
}

// Rank returns the rank over GF(2). The receiver is not modified.
func (m *GF2Matrix) Rank() int {
	work := make([][]uint64, m.rows)
	for i := range work {
		work[i] = append([]uint64(nil), m.row[i]...)
	}
	rank := 0
	for col := 0; col < m.cols && rank < m.rows; col++ {
		word, bit := col/64, uint(col%64)
		pivot := -1
		for r := rank; r < m.rows; r++ {
			if work[r][word]>>bit&1 == 1 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			continue
		}
		work[pivot], work[rank] = work[rank], work[pivot]
		for r := rank + 1; r < m.rows; r++ {
			if work[r][word]>>bit&1 == 1 {
				for k := word; k < len(work[r]); k++ {
					work[r][k] ^= work[rank][k]
				}
			}
		}
		rank++
	}
	return rank
}
