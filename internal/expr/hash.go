package expr

import (
	"math"
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

// Uint64 folds v least-significant byte first (little-endian order).
func (h Hash) Uint64(v uint64) Hash {
	for i := 0; i < 8; i++ {
		h = (h ^ Hash(v&0xff)) * fnvPrime64
		v >>= 8
	}
	return h
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
