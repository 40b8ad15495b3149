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
// back in universe order.
//
// Newton's identities turn the power sums into the set's elementary
// symmetric polynomials, which fix the set as the roots of
// z^c − e1·z^{c−1} + e2·z^{c−2} − … (the [MT16] reconstruction). For
// c ≤ 2 the roots have a closed form and Decode looks each one up in the
// universe; for c ≥ 3 it evaluates the polynomial at every universe
// element. Either way it re-encodes the set and compares every sum.
func (r *Recoverer) Decode(sums []uint64, universe []int) (set []int, ok bool) {
	e, ok := r.elementary(sums)
	switch {
	case !ok:
		return nil, false
	case e == nil:
		return nil, true
	case len(e) <= 3:
		set = r.closedRoots(e, universe)
	default:
		set = r.scanRoots(e, universe)
	}
	if set == nil || !r.verify(set, sums) {
		return nil, false
	}
	return set, true
}

// elementary checks the sketch's length and count word c and returns
// the elementary symmetric polynomials e_0..e_c of the encoded set, by
// Newton's identities: m·e_m = Σ_{i=1..m} (−1)^{i−1} e_{m−i} p_i, each
// divided by m through the table of 1/m NewRecoverer makes. The count
// word is range-checked before it becomes an int, so a corrupted one
// cannot turn negative. An empty set (c = 0) must have every power sum
// zero, and its e is nil.
func (r *Recoverer) elementary(sums []uint64) (e []uint64, ok bool) {
	if len(sums) != r.Len() {
		return nil, false
	}
	if sums[0] == 0 {
		for _, s := range sums {
			if s != 0 {
				return nil, false
			}
		}
		return nil, true
	}
	if sums[0] > uint64(r.k) {
		return nil, false
	}
	f := r.field
	c := int(sums[0])
	e = make([]uint64, c+1)
	e[0] = 1
	for m := 1; m <= c; m++ {
		var acc uint64
		for i := 1; i <= m; i++ {
			term := f.Mul(e[m-i], sums[i])
			if i%2 == 1 {
				acc = f.Add(acc, term)
			} else {
				acc = f.Sub(acc, term)
			}
		}
		e[m] = f.Mul(acc, r.inv[m])
	}
	return e, true
}

// closedRoots solves z − e1 or z² − e1·z + e2 in closed form and returns
// its roots in universe order, or nil unless it has c distinct roots,
// all in the universe. For c = 2 the discriminant D = e1² − 4e2 must be
// a non-zero square: p = 2³¹−1 ≡ 3 (mod 4), so its square root, if
// any, is D^((p+1)/4), and the roots are (e1 ± √D)/2. D = 0 is a double
// root, which no set of distinct elements has.
func (r *Recoverer) closedRoots(e []uint64, universe []int) []int {
	f := r.field
	if len(e) == 2 {
		if i := position(universe, e[1]); i >= 0 {
			return []int{universe[i]}
		}
		return nil
	}
	d := f.Sub(f.Mul(e[1], e[1]), f.Mul(4, e[2]))
	if d == 0 {
		return nil
	}
	s := f.Pow(d, (f.P()+1)/4)
	if f.Mul(s, s) != d {
		return nil // D is not a square: no root in GF(p)
	}
	half := (f.P() + 1) / 2 // 2⁻¹
	i := position(universe, f.Mul(f.Add(e[1], s), half))
	j := position(universe, f.Mul(f.Sub(e[1], s), half))
	if i < 0 || j < 0 {
		return nil
	}
	if i > j {
		i, j = j, i
	}
	return []int{universe[i], universe[j]}
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

// scanRoots evaluates the polynomial at every universe element and
// returns the roots in universe order, or nil unless there are exactly
// c of them. It costs Θ(n·c) a sketch.
func (r *Recoverer) scanRoots(e []uint64, universe []int) []int {
	c := len(e) - 1
	var set []int
	for _, x := range universe {
		if x < 0 || uint64(x) >= r.field.P() {
			continue
		}
		if r.evalPoly(e, c, uint64(x)) == 0 {
			set = append(set, x)
			if len(set) > c {
				return nil
			}
		}
	}
	if len(set) != c {
		return nil
	}
	return set
}

// verify re-encodes set and compares every power sum (guards against
// |set| > k aliasing).
func (r *Recoverer) verify(set []int, sums []uint64) bool {
	check, err := r.Encode(set)
	if err != nil {
		return false
	}
	return slices.Equal(check, sums)
}

// evalPoly evaluates z^c + Σ_{m=1..c} (−1)^m e_m z^{c−m} at z = x.
func (r *Recoverer) evalPoly(e []uint64, c int, x uint64) uint64 {
	f := r.field
	// Horner over coefficients [1, −e1, +e2, −e3, ...].
	acc := uint64(1)
	for m := 1; m <= c; m++ {
		coeff := e[m]
		if m%2 == 1 {
			coeff = f.Neg(coeff)
		}
		acc = f.Add(f.Mul(acc, x), coeff)
	}
	return acc
}
