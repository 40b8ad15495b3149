// Package sketch implements the deterministic-sketching substrate behind
// the paper's tightness remark (Section 1.1, citing Montealegre & Todinca
// [MT16a/MT16b]): deterministic k-sparse set recovery over GF(p) via
// power sums and Newton's identities, and on top of it a
// peeling-based connectivity algorithm for graphs of bounded arboricity
// in the BCC model. Unlike the degree-bounded neighbourhood broadcast
// (package algorithms), the sketching algorithm tolerates individual
// high-degree vertices as long as the graph is uniformly sparse — the
// class for which the paper says its Ω(log n) bounds are tight.
package sketch

import (
	"fmt"
	"slices"

	"bcclique/internal/linalg"
)

// Recoverer encodes subsets of a universe of non-negative integers
// (IDs < p) into 2k+1 field elements — the power sums Σ x^j for
// j = 0..2k — and decodes any subset of size ≤ k exactly. Encoding is
// linear, deterministic, and verifiable: Decode re-checks the recovered
// set against every sum, so oversized or corrupted sketches are rejected
// rather than mis-decoded.
type Recoverer struct {
	field linalg.Field
	k     int
	inv   []uint64 // inv[m] = 1/m for m = 1..k, Newton's identities' divisors
}

// NewRecoverer returns a k-sparse recoverer over GF(2³¹−1).
func NewRecoverer(k int) (*Recoverer, error) {
	if k < 1 {
		return nil, fmt.Errorf("sketch: sparsity %d < 1", k)
	}
	f := linalg.DefaultField()
	if uint64(k) >= f.P() {
		return nil, fmt.Errorf("sketch: sparsity %d too large for the field", k)
	}
	// 1/m = −⌊p/m⌋ · 1/(p mod m), since p = ⌊p/m⌋·m + p mod m; the
	// remainder is below m, and not 0 because p is prime and m < p.
	inv := make([]uint64, k+1)
	inv[1] = 1
	for m := uint64(2); m <= uint64(k); m++ {
		inv[m] = f.Mul(f.P()-f.P()/m, inv[f.P()%m])
	}
	return &Recoverer{field: f, k: k, inv: inv}, nil
}

// K returns the sparsity bound.
func (r *Recoverer) K() int { return r.k }

// Len returns the sketch length in field elements (2k+1).
func (r *Recoverer) Len() int { return 2*r.k + 1 }

// Encode returns the sketch of the given set. Elements must be distinct,
// non-negative, and smaller than the field modulus; the set may exceed k
// (the sketch is still well defined — Decode will reject it).
func (r *Recoverer) Encode(set []int) ([]uint64, error) {
	f := r.field
	sums := make([]uint64, r.Len())
	sums[0] = uint64(len(set)) % f.P()
	for _, x := range set {
		if x < 0 || uint64(x) >= f.P() {
			return nil, fmt.Errorf("sketch: element %d outside [0, p)", x)
		}
		xr := uint64(x)
		pow := xr
		for j := 1; j < r.Len(); j++ {
			sums[j] = f.Add(sums[j], pow)
			pow = f.Mul(pow, xr)
		}
	}
	return sums, nil
}

// Add combines two sketches: the sketch of a disjoint union is the
// element-wise sum (linearity — the property streaming connectivity
// sketches rely on).
func (r *Recoverer) Add(a, b []uint64) ([]uint64, error) {
	if len(a) != r.Len() || len(b) != r.Len() {
		return nil, fmt.Errorf("sketch: length mismatch %d/%d, want %d", len(a), len(b), r.Len())
	}
	out := make([]uint64, r.Len())
	for i := range out {
		out[i] = r.field.Add(a[i], b[i])
	}
	return out, nil
}

// Decode recovers the encoded set from a sketch. It reports ok = false
// when the sketch does not correspond to a ≤ k-subset of the universe
// (too many elements, elements outside the universe, or corruption).
// The universe lists distinct elements in any order, and the set comes
// back in universe order. It is decode with no candidates: a row of
// c ≥ 3 elements scans the universe until two roots are left, Θ(n·c)
// field work, and a row of at most two costs no scan at all.
func (r *Recoverer) Decode(sums []uint64, universe []int) (set []int, ok bool) {
	pos, ok := r.decode(nil, sums, universe, nil)
	if !ok || len(pos) == 0 {
		return nil, ok
	}
	set = make([]int, len(pos))
	for j, i := range pos {
		set[j] = universe[i]
	}
	return set, true
}

// decode appends to dst the ascending positions in universe of the set
// a sketch encodes and reports whether there is one; on false dst comes
// back at its old length.
//
// Newton's identities turn the power sums into the monic polynomial
// whose roots are the set (the [MT16] reconstruction). decode first
// tries the candidate positions, at one Horner evaluation each, and
// divides z − x out synthetically on a root x. Only while more than two
// roots are left does it scan the universe, in order, and it solves the
// last one or two in closed form. It rejects a position found twice (a
// repeated element: {x, x, y} has power sums too) and re-encodes the
// set against every sum. A sketch of at most k elements has exactly one
// decoding, so candidates, roots or not, repeated or not, change what
// decode costs and never what it returns: a caller that has heard the
// rows holding this row's vertex gives their positions and skips the
// scan.
func (r *Recoverer) decode(dst []int32, sums []uint64, universe []int, cands []int32) ([]int32, bool) {
	var stack [17]uint64 // rows of up to 16 elements decode without allocating
	a, ok := r.monic(stack[:0], sums)
	if !ok {
		return dst, false
	}
	start := len(dst)
	for _, i := range cands {
		if len(a) == 1 {
			break
		}
		if q, root := r.divideRoot(a, universe[i]); root {
			a, dst = q, append(dst, i)
		}
	}
	for i := 0; len(a) > 3 && i < len(universe); i++ {
		if q, root := r.divideRoot(a, universe[i]); root {
			a, dst = q, append(dst, int32(i))
		}
	}
	if len(a) > 3 {
		return dst[:start], false // the universe holds too few roots
	}
	f := r.field
	switch len(a) {
	case 2: // z + a1: the root is −a1
		i := position(universe, f.Neg(a[1]))
		if i < 0 {
			return dst[:start], false
		}
		dst = append(dst, int32(i))
	case 3:
		// z² + a1·z + a2: the discriminant D = a1² − 4a2 must be a
		// square. p = 2³¹−1 ≡ 3 (mod 4), so its square root, if any, is
		// D^((p+1)/4), and the roots are (−a1 ± √D)/2. D = 0 is a double
		// root, whose one position the repeat check below rejects.
		d := f.Sub(f.Mul(a[1], a[1]), f.Mul(4, a[2]))
		s := f.Pow(d, (f.P()+1)/4)
		if f.Mul(s, s) != d {
			return dst[:start], false // D is not a square: no root in GF(p)
		}
		half := (f.P() + 1) / 2 // 2⁻¹
		i := position(universe, f.Mul(f.Sub(s, a[1]), half))
		j := position(universe, f.Mul(f.Sub(f.Neg(a[1]), s), half))
		if i < 0 || j < 0 {
			return dst[:start], false
		}
		dst = append(dst, int32(i), int32(j))
	}
	set := dst[start:]
	slices.Sort(set)
	for j := 1; j < len(set); j++ {
		if set[j] == set[j-1] {
			return dst[:start], false
		}
	}
	if !r.verify(set, universe, sums, a[:0]) {
		return dst[:start], false
	}
	return dst, true
}

// monic checks the sketch's length and count word c and appends to
// dst[:0] the coefficients 1, a_1, …, a_c of the monic polynomial
// z^c + a_1·z^{c−1} + … + a_c whose roots are the encoded set. By
// Newton's identities m·a_m = −Σ_{i=1..m} a_{m−i}·p_i for the power
// sums p_i, each divided by m through the table of 1/m NewRecoverer
// makes. The count word is range-checked before it becomes an int, so a
// corrupted one cannot turn negative. An empty set's polynomial is 1,
// and verify then requires every power sum to be zero.
func (r *Recoverer) monic(dst, sums []uint64) ([]uint64, bool) {
	if len(sums) != r.Len() || sums[0] > uint64(r.k) {
		return dst, false
	}
	f := r.field
	a := append(dst[:0], 1)
	for m := 1; m <= int(sums[0]); m++ {
		var acc uint64
		for i := 1; i <= m; i++ {
			acc = f.Add(acc, f.Mul(a[m-i], sums[i]))
		}
		a = append(a, f.Mul(f.Neg(acc), r.inv[m]))
	}
	return a, true
}

// divideRoot evaluates the monic polynomial a at x by Horner's rule and,
// if x is a root, divides z − x out in place: Horner's partial sums are
// the quotient's coefficients. Elements outside [0, p) are no root.
func (r *Recoverer) divideRoot(a []uint64, x int) (q []uint64, root bool) {
	if x < 0 || uint64(x) >= r.field.P() {
		return a, false
	}
	f, z := r.field, uint64(x)
	acc := uint64(1)
	for _, c := range a[1:] {
		acc = f.Add(f.Mul(acc, z), c)
	}
	if acc != 0 {
		return a, false
	}
	for m := 1; m < len(a)-1; m++ {
		a[m] = f.Add(f.Mul(a[m-1], z), a[m])
	}
	return a[:len(a)-1], true
}

// position returns the index of x in universe, or −1: a binary search
// for a sorted universe, then a linear one for an unsorted universe or
// an x it does not hold.
func position(universe []int, x uint64) int {
	if i, found := slices.BinarySearch(universe, int(x)); found {
		return i
	}
	return slices.Index(universe, int(x))
}

// verify re-encodes the elements at the given positions and compares
// every power sum (guards against |set| > k aliasing); pow is a work
// buffer with room for one power per element.
func (r *Recoverer) verify(set []int32, universe []int, sums []uint64, pow []uint64) bool {
	if uint64(len(set)) != sums[0] {
		return false
	}
	f := r.field
	for _, i := range set {
		pow = append(pow, uint64(universe[i]))
	}
	for j := 1; j < len(sums); j++ {
		var sum uint64
		for e, i := range set {
			sum = f.Add(sum, pow[e])
			pow[e] = f.Mul(pow[e], uint64(universe[i]))
		}
		if sum != sums[j] {
			return false
		}
	}
	return true
}
