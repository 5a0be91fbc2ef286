package expr

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// Hash is an inline FNV-1a 64-bit accumulator for the zero-allocation
// structural hashes used on the serving hot path (predicate hashing here,
// plan fingerprinting in internal/plan). The stdlib hash/fnv writer escapes
// to the heap behind its interface and forces callers to build intermediate
// strings; this value type folds fields in directly. Hash values are
// compared only within a process (dedup maps, cache keys) and are not a
// stable serialization format.
type Hash uint64

const (
	fnvOffset64 = 14695981039346269237
	fnvPrime64  = 1099511628211
)

// NewHash returns the FNV-1a offset basis.
func NewHash() Hash { return fnvOffset64 }

// Byte folds one byte.
func (h Hash) Byte(b byte) Hash { return (h ^ Hash(b)) * fnvPrime64 }

// Str folds the string's bytes plus a NUL terminator, so consecutive
// strings can't alias across their boundary.
func (h Hash) Str(s string) Hash {
	for i := 0; i < len(s); i++ {
		h = (h ^ Hash(s[i])) * fnvPrime64
	}
	return h.Byte(0)
}

// fnvPrimePow[k] is fnvPrime64 to the k-th power, mod 2⁶⁴.
var fnvPrimePow = func() (out [9]Hash) {
	out[0] = 1
	for k := 1; k < len(out); k++ {
		out[k] = out[k-1] * fnvPrime64
	}
	return out
}()

// Uint64 folds v least-significant byte first (little-endian order). Past
// v's highest nonzero byte every step is (h ^ 0) * p = h * p, so the zero
// bytes fold as one multiply by p^k — the same value as the byte loop (mod
// 2⁶⁴ multiplication is associative), in one multiply instead of up to eight
// dependent ones for the small integers plans are mostly made of.
func (h Hash) Uint64(v uint64) Hash {
	n := (bits.Len64(v) + 7) >> 3
	for i := 0; i < n; i++ {
		h = (h ^ Hash(v&0xff)) * fnvPrime64
		v >>= 8
	}
	return h * fnvPrimePow[8-n]
}

// Int folds a signed integer.
func (h Hash) Int(v int) Hash { return h.Uint64(uint64(int64(v))) }

// Float folds a float64 by its IEEE-754 bits.
func (h Hash) Float(f float64) Hash { return h.Uint64(math.Float64bits(f)) }

// AppendHash folds "table.column" (componentwise, no string building).
func (c ColumnRef) AppendHash(h Hash) Hash { return h.Str(c.Table).Str(c.Column) }

// AppendHash folds the predicate's structure — function, column, constant
// operands, children — in preorder. It distinguishes nil from present
// sub-predicates with a leading presence byte and never renders the tree to
// a string, so hashing a predicate allocates nothing.
func (n *Node) AppendHash(h Hash) Hash {
	if n == nil {
		return h.Byte(0)
	}
	h = h.Byte(1).Int(int(n.Fn))
	h = n.Col.AppendHash(h)
	h = h.Int(len(n.Args))
	for _, v := range n.Args {
		h = h.Float(v)
	}
	h = h.Int(len(n.Children))
	for _, c := range n.Children {
		h = c.AppendHash(h)
	}
	return h
}

// AppendKey appends "table.column" to b as two length-prefixed strings: an
// exact, prefix-free encoding, for keys that must not collide (AppendHash's
// values may).
func (c ColumnRef) AppendKey(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(c.Table)))
	b = append(b, c.Table...)
	b = binary.AppendUvarint(b, uint64(len(c.Column)))
	return append(b, c.Column...)
}

// AppendKey appends the predicate's exact encoding to b: the fields
// AppendHash folds, in the same preorder, with every list length-prefixed and
// constants by their IEEE-754 bits, so two predicates have equal keys iff
// they are Equal.
func (n *Node) AppendKey(b []byte) []byte {
	if n == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.AppendVarint(b, int64(n.Fn))
	b = n.Col.AppendKey(b)
	b = binary.AppendUvarint(b, uint64(len(n.Args)))
	for _, v := range n.Args {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.AppendUvarint(b, uint64(len(n.Children)))
	for _, c := range n.Children {
		b = c.AppendKey(b)
	}
	return b
}

// Equal reports whether the two predicates have the same structure: exactly
// the fields AppendHash folds, constants by their IEEE-754 bits.
func (n *Node) Equal(m *Node) bool {
	if n == m {
		return true
	}
	if n == nil || m == nil {
		return false
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return n.Fn == m.Fn && n.Col == m.Col && slices.EqualFunc(n.Args, m.Args, sameBits) &&
		slices.EqualFunc(n.Children, m.Children, (*Node).Equal)
}
