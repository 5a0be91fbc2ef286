package expr

import (
	"math"
	"testing"
)

// byteLoopUint64 is Hash.Uint64 as FNV-1a spells it: all eight bytes, least
// significant first, one multiply each.
func byteLoopUint64(h Hash, v uint64) Hash {
	for i := 0; i < 8; i++ {
		h = (h ^ Hash(v&0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

// TestUint64MatchesByteLoop: folding the zero bytes above v's highest
// nonzero one as a single power of the prime changes no value. Every plan
// fingerprint, and so every plan-cache key, choices digest and fingerprint
// statistic, is built from these folds.
func TestUint64MatchesByteLoop(t *testing.T) {
	values := []uint64{0, 1, 2, 255, 256, 257, 0xffff, 1 << 16, 1 << 56, 1<<56 - 1, 1<<56 + 1, math.MaxUint64,
		math.Float64bits(0.5), math.Float64bits(-3), math.Float64bits(1e300)}
	for _, n := range []int64{-1, -2, -256, math.MinInt64} { // negative ints, as Int folds them
		values = append(values, uint64(n))
	}
	for k := 0; k < 64; k++ {
		values = append(values, 1<<k, 1<<k-1, 1<<k+1)
	}
	// A seeded sweep (splitmix64) over values with from one to eight
	// significant bytes, from a spread of accumulator states.
	x := uint64(42)
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	for i := 0; i < 4000; i++ {
		values = append(values, next()>>(8*(i%8)))
	}
	bases := []Hash{NewHash(), 0, 1, math.MaxUint64, Hash(next()), Hash(next())}
	for _, h := range bases {
		for _, v := range values {
			if got, want := h.Uint64(v), byteLoopUint64(h, v); got != want {
				t.Fatalf("Hash(%#x).Uint64(%#x) = %#x, byte loop %#x", uint64(h), v, uint64(got), uint64(want))
			}
		}
	}
	for _, v := range []int{0, 1, -1, 255, -256, math.MaxInt64, math.MinInt64} {
		if got, want := NewHash().Int(v), byteLoopUint64(NewHash(), uint64(int64(v))); got != want {
			t.Fatalf("Int(%d) = %#x, byte loop %#x", v, uint64(got), uint64(want))
		}
	}
}

func BenchmarkHashUint64(b *testing.B) {
	h := NewHash()
	for i := 0; i < b.N; i++ {
		h = h.Uint64(uint64(i & 0xff))
	}
	sinkHash = h
}

var sinkHash Hash
