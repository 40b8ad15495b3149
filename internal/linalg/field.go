package linalg

import (
	"fmt"
	"math/big"
)

// Field is arithmetic over GF(p) for a prime p < 2³², exported for the
// deterministic-sketch substrate (package sketch) and anything else that
// needs modular arithmetic outside matrix elimination.
type Field struct {
	p uint64
}

// NewField returns GF(p), validating primality.
func NewField(p uint64) (Field, error) {
	if p < 2 || p >= 1<<32 {
		return Field{}, fmt.Errorf("linalg: field modulus %d outside [2, 2³²)", p)
	}
	if !new(big.Int).SetUint64(p).ProbablyPrime(32) {
		return Field{}, fmt.Errorf("linalg: field modulus %d is not prime", p)
	}
	return Field{p: p}, nil
}

// DefaultField returns GF(2³¹−1).
func DefaultField() Field { return Field{p: DefaultPrime} }

// P returns the modulus.
func (f Field) P() uint64 { return f.p }

// Reduce maps an arbitrary int64 into [0, p).
func (f Field) Reduce(x int64) uint64 {
	v := x % int64(f.p)
	if v < 0 {
		v += int64(f.p)
	}
	return uint64(v)
}

// Add returns a+b mod p (inputs must be reduced).
func (f Field) Add(a, b uint64) uint64 {
	s := a + b
	if s >= f.p {
		s -= f.p
	}
	return s
}

// Sub returns a−b mod p (inputs must be reduced).
func (f Field) Sub(a, b uint64) uint64 { return subMod(a, b, f.p) }

// Mul returns a·b mod p (inputs must be reduced).
func (f Field) Mul(a, b uint64) uint64 { return mulMod(a, b, f.p) }

// Neg returns −a mod p.
func (f Field) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return f.p - a
}

// Inv returns a⁻¹ mod p for a ≠ 0.
func (f Field) Inv(a uint64) (uint64, error) {
	if a%f.p == 0 {
		return 0, fmt.Errorf("linalg: inverse of 0 in GF(%d)", f.p)
	}
	return powMod(a, f.p-2, f.p), nil
}

// Pow returns a^e mod p.
func (f Field) Pow(a, e uint64) uint64 { return powMod(a, e, f.p) }
