package partition

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
)

// Bell returns the n-th Bell number B_n, the number of set partitions of an
// n-element set, computed with the Bell triangle. The paper uses
// B_n = 2^{Θ(n log n)} to lower-bound the communication complexity of
// Partition (Section 2).
func Bell(n int) *big.Int {
	if n < 0 {
		return big.NewInt(0)
	}
	// row holds the current Bell-triangle row.
	row := []*big.Int{big.NewInt(1)}
	bell := big.NewInt(1) // B_0
	for i := 1; i <= n; i++ {
		next := make([]*big.Int, i+1)
		next[0] = new(big.Int).Set(row[len(row)-1])
		for j := 1; j <= i; j++ {
			next[j] = new(big.Int).Add(next[j-1], row[j-1])
		}
		row = next
		bell = row[0]
	}
	return new(big.Int).Set(bell)
}

// BellsUpTo returns [B_0, B_1, ..., B_n] in one triangle pass.
func BellsUpTo(n int) []*big.Int {
	bells := make([]*big.Int, n+1)
	bells[0] = big.NewInt(1)
	row := []*big.Int{big.NewInt(1)}
	for i := 1; i <= n; i++ {
		next := make([]*big.Int, i+1)
		next[0] = new(big.Int).Set(row[len(row)-1])
		for j := 1; j <= i; j++ {
			next[j] = new(big.Int).Add(next[j-1], row[j-1])
		}
		row = next
		bells[i] = new(big.Int).Set(row[0])
	}
	return bells
}

// Log2Big returns log₂(x) for a positive big integer, accurate enough for
// entropy accounting (used for H(P_A) = log₂ B_n in Theorem 4.5 and the
// rank bounds of Corollaries 2.4 and 4.2).
func Log2Big(x *big.Int) float64 {
	if x.Sign() <= 0 {
		return 0
	}
	bits := x.BitLen()
	// Take the top 53 bits as a float mantissa and account for the rest
	// as an exponent.
	shift := 0
	if bits > 53 {
		shift = bits - 53
	}
	top := new(big.Int).Rsh(x, uint(shift))
	f, _ := new(big.Float).SetInt(top).Float64()
	return float64(shift) + math.Log2(f)
}

// NumPairings returns (n-1)!! = n!/(2^{n/2}·(n/2)!), the number of perfect
// pairings of [n] (even n): the row/column count r of the matrix E_n in
// Lemma 4.1. Returns 0 for odd or non-positive n.
func NumPairings(n int) *big.Int {
	if n <= 0 || n%2 != 0 {
		return big.NewInt(0)
	}
	r := big.NewInt(1)
	for k := n - 1; k >= 1; k -= 2 {
		r.Mul(r, big.NewInt(int64(k)))
	}
	return r
}

// Each enumerates all set partitions of [n] in restricted-growth-string
// order, calling fn for each; enumeration stops early if fn returns false.
// The Partition passed to fn owns its labels (safe to retain).
func Each(n int, fn func(Partition) bool) {
	if n == 0 {
		return
	}
	labels := make([]int, n)
	var rec func(i, top int) bool
	rec = func(i, top int) bool {
		if i == n {
			return fn(Partition{labels: append([]int(nil), labels...)})
		}
		for l := 0; l <= top+1; l++ {
			labels[i] = l
			nm := top
			if l > top {
				nm = l
			}
			if !rec(i+1, nm) {
				return false
			}
		}
		return true
	}
	rec(1, 0) // labels[0] is fixed to 0
}

// All returns all B_n partitions of [n]. Feasible for n ≤ 12 or so.
func All(n int) []Partition {
	var out []Partition
	Each(n, func(p Partition) bool {
		out = append(out, p)
		return true
	})
	return out
}

// EachPairing enumerates all perfect pairings of [n] (n even): the input
// family of TwoPartition. fn is called once per pairing; enumeration stops
// early if fn returns false.
func EachPairing(n int, fn func(Partition) bool) {
	if n <= 0 || n%2 != 0 {
		return
	}
	labels := make([]int, n)
	used := make([]bool, n)
	var rec func(block int) bool
	rec = func(block int) bool {
		first := -1
		for e := 0; e < n; e++ {
			if !used[e] {
				first = e
				break
			}
		}
		if first == -1 {
			return fn(FromLabels(labels))
		}
		used[first] = true
		labels[first] = block
		for e := first + 1; e < n; e++ {
			if used[e] {
				continue
			}
			used[e] = true
			labels[e] = block
			if !rec(block + 1) {
				used[e] = false
				used[first] = false
				return false
			}
			used[e] = false
		}
		used[first] = false
		return true
	}
	rec(0)
}

// AllPairings returns all (n-1)!! perfect pairings of [n].
func AllPairings(n int) []Partition {
	var out []Partition
	EachPairing(n, func(p Partition) bool {
		out = append(out, p)
		return true
	})
	return out
}

// Random returns a uniformly random set partition of [n], exactly (not
// approximately) uniform over all B_n partitions. It uses the classical
// recurrence B_n = Σ_k C(n-1, k-1)·B_{n-k}: the block containing the first
// remaining element has size k with probability C(m-1,k-1)·B_{m-k}/B_m.
// This realizes the hard distribution µ of Theorem 4.5.
func Random(n int, rng *rand.Rand) Partition {
	bells := BellsUpTo(n)
	labels := make([]int, n)
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	block := 0
	for len(remaining) > 0 {
		m := len(remaining)
		// Choose k = size of the block containing remaining[0].
		target := new(big.Int).Rand(rng, bells[m])
		acc := new(big.Int)
		k := 1
		weight := new(big.Int)
		binom := big.NewInt(1) // C(m-1, k-1)
		for ; k <= m; k++ {
			weight.Mul(binom, bells[m-k])
			acc.Add(acc, weight)
			if target.Cmp(acc) < 0 {
				break
			}
			// C(m-1,k) = C(m-1,k-1)·(m-k)/k
			binom.Mul(binom, big.NewInt(int64(m-k)))
			binom.Div(binom, big.NewInt(int64(k)))
		}
		if k > m {
			k = m // numeric safety; cannot happen since Σ weights = B_m
		}
		// Choose the k-1 companions of remaining[0] uniformly.
		labels[remaining[0]] = block
		rest := remaining[1:]
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		for _, e := range rest[:k-1] {
			labels[e] = block
		}
		next := append([]int(nil), rest[k-1:]...)
		slices.Sort(next)
		remaining = next
		block++
	}
	return FromLabels(labels)
}

// RandomPairing returns a uniformly random perfect pairing of [n] (n even).
func RandomPairing(n int, rng *rand.Rand) (Partition, bool) {
	if n <= 0 || n%2 != 0 {
		return Partition{}, false
	}
	perm := rng.Perm(n)
	labels := make([]int, n)
	for i := 0; i < n; i += 2 {
		labels[perm[i]] = i / 2
		labels[perm[i+1]] = i / 2
	}
	return FromLabels(labels), true
}
