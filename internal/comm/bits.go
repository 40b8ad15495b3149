package comm

import (
	"fmt"
	"math/bits"
)

// BitWriter accumulates a bit string MSB-agnostically (bits are appended
// in call order and read back in the same order).
type BitWriter struct {
	bits []byte // one bit per byte for simplicity; counts are what matter
}

// WriteBit appends one bit.
func (w *BitWriter) WriteBit(b byte) { w.bits = append(w.bits, b&1) }

// WriteUint appends the low `width` bits of v, LSB first.
func (w *BitWriter) WriteUint(v uint64, width int) {
	for i := 0; i < width; i++ {
		w.WriteBit(byte(v >> uint(i)))
	}
}

// Len returns the number of bits written.
func (w *BitWriter) Len() int { return len(w.bits) }

// Bits returns the accumulated bit string.
func (w *BitWriter) Bits() []byte { return append([]byte(nil), w.bits...) }

// BitReader consumes a bit string produced by BitWriter.
type BitReader struct {
	bits []byte
	pos  int
}

// NewBitReader wraps a bit string.
func NewBitReader(bits []byte) *BitReader { return &BitReader{bits: bits} }

// ReadBit consumes one bit.
func (r *BitReader) ReadBit() (byte, error) {
	if r.pos >= len(r.bits) {
		return 0, fmt.Errorf("comm: bit string exhausted at %d", r.pos)
	}
	b := r.bits[r.pos] & 1
	r.pos++
	return b, nil
}

// ReadUint consumes `width` bits, LSB first.
func (r *BitReader) ReadUint(width int) (uint64, error) {
	var v uint64
	for i := 0; i < width; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v |= uint64(b) << uint(i)
	}
	return v, nil
}

// Remaining returns the number of unread bits.
func (r *BitReader) Remaining() int { return len(r.bits) - r.pos }

// BitsFor returns ⌈log₂ m⌉, the bits needed to address m values (0 for
// m ≤ 1).
func BitsFor(m int) int { return bits.Len(uint(max(m-1, 0))) }
