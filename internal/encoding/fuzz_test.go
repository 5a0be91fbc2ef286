package encoding

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"loam/internal/expr"
	"loam/internal/plan"
)

// fuzzReader draws a node's fields from fuzz bytes, zeros once they run out.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *fuzzReader) u64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = r.byte()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// float is mostly one of the values a key must keep apart or fold: +0 (left
// out), -0 and NaN (kept, by their bits), 1 (a one-word), else any bits.
func (r *fuzzReader) float() float64 {
	switch r.byte() % 6 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.NaN()
	case 3:
		return 1
	case 4:
		return math.Float64frombits(0x7ff8000000000000 | r.u64()&0xffff)
	default:
		return math.Float64frombits(r.u64())
	}
}

// count is an integer field: zero, negative, one, the normalization's
// ceiling and past it (where LogNorm reads 1), or small.
func (r *fuzzReader) count() int {
	switch b := r.byte(); b % 6 {
	case 0:
		return 0
	case 1:
		return -int(b)
	case 2:
		return 1
	case 3:
		return 256
	case 4:
		return 1 << 20
	default:
		return int(b)
	}
}

func (r *fuzzReader) col() expr.ColumnRef {
	return expr.ColumnRef{Table: []string{"p.t1", "p.t2", "big", ""}[r.byte()%4], Column: []string{"c1", "c2", "c3", ""}[r.byte()%4]}
}

func (r *fuzzReader) cols() []expr.ColumnRef {
	out := make([]expr.ColumnRef, r.byte()%4)
	for i := range out {
		out[i] = r.col()
	}
	return out
}

func (r *fuzzReader) pred(depth int) *expr.Node {
	n := &expr.Node{Fn: expr.Func(int(r.byte()) % (expr.NumFuncs + 2)), Col: r.col()}
	for range int(r.byte()%3) * min(depth, 1) {
		n.Children = append(n.Children, r.pred(depth-1))
	}
	return n
}

// node draws every field the encoder reads, operator and enum values out of
// range included.
func (r *fuzzReader) node() *plan.Node {
	n := &plan.Node{
		Op:              plan.OpType(int(r.byte()) % (plan.NumOpTypes + 2)),
		Table:           []string{"", "p.t1", "p.t2", "big"}[r.byte()%4],
		PartitionsRead:  r.count(),
		ColumnsAccessed: r.count(),
		Parallelism:     r.count(),
		JoinForm:        plan.JoinForm(int(r.byte()) % (plan.NumJoinForms + 2)),
		LeftCols:        r.cols(),
		RightCols:       r.cols(),
		AggCols:         r.cols(),
		GroupCols:       r.cols(),
	}
	for range r.byte() % 4 {
		n.AggFuncs = append(n.AggFuncs, plan.AggFunc(int(r.byte())%(plan.NumAggFuncs+2)))
	}
	if r.byte()%2 == 1 {
		n.Pred = r.pred(2)
	}
	return n
}

// FuzzNodeKey holds the one feature writer to the dense oracle it replaced
// (denseNodeInto) on random nodes and environments: a key expands to the
// oracle's row bit for bit, a key appended after another is the same words,
// and two keys are equal iff their rows are Float64bits-equal. The second
// node is the first with one field redrawn or rewritten to the same row
// (join columns swapped, aggregate functions repeated), so equal rows are
// common. The keys are written by the encoder every input shares, its
// identifier memo warm, and must be the words a fresh encoder writes, whose
// memo every identifier misses, and one whose memo is full, which computes
// without storing.
func FuzzNodeKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(plan.OpTableScan), 1, 5, 3, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 3, 0, 2, 1})
	f.Add([]byte{byte(plan.OpHashJoin), 0, 0, 0, 3, 1, 2, 1, 2, 2, 0, 1, 0, 0, 0, 0, 1, 2, 3, 4, 5, 1, 5})
	f.Add([]byte{byte(plan.OpFilter), 2, 4, 4, 9, 0, 0, 0, 0, 0, 0, 1, 1, 3, 1, 2, 2, 3, 1, 3, 1, 0, 0, 1, 6})
	f.Add([]byte{byte(plan.OpHashAggregate), 0, 0, 0, 0, 0, 0, 0, 2, 1, 1, 2, 2, 3, 1, 2, 3, 0, 1, 4, 4, 4, 4, 1, 1, 4})
	e, full := enc(), fillIdents(enc())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		a := r.node()
		var envA [4]float64
		for i := range envA {
			envA[i] = r.float()
		}
		hasA := r.byte()%4 != 0
		b, envB, hasB := *a, envA, hasA
		switch r.byte() % 8 {
		case 1:
			envB[r.byte()%4] = r.float()
		case 2:
			hasB = !hasB
		case 3:
			b.Parallelism = r.count()
		case 4:
			b.PartitionsRead = r.count()
		case 5:
			b.LeftCols, b.RightCols = b.RightCols, b.LeftCols
		case 6:
			b.AggFuncs = append(slices.Clone(b.AggFuncs), b.AggFuncs...)
		case 7:
			b = *r.node()
		}

		rowA, rowB := oracleNode(e, a, envA, hasA), oracleNode(e, &b, envB, hasB)
		keyA := e.AppendNodeKey(nil, a, envA, hasA)
		keyB := e.AppendNodeKey(nil, &b, envB, hasB)
		got := make([]float64, e.Dim())
		for _, c := range []struct {
			key []uint32
			row []float64
		}{{keyA, rowA}, {keyB, rowB}} {
			expandKey(got, c.key)
			if !sameBits(got, c.row) {
				t.Fatalf("key %v expands to\n%v\nthe oracle writes\n%v", c.key, got, c.row)
			}
		}
		if after := e.AppendNodeKey(slices.Clone(keyA), &b, envB, hasB); !slices.Equal(after[len(keyA):], keyB) {
			t.Fatalf("appended after another key: %v, alone %v", after[len(keyA):], keyB)
		}
		for _, other := range []*Encoder{enc(), full} {
			if k := other.AppendNodeKey(nil, a, envA, hasA); !slices.Equal(k, keyA) {
				t.Fatalf("another encoder's key %v, the shared one's %v", k, keyA)
			}
			if k := other.AppendNodeKey(nil, &b, envB, hasB); !slices.Equal(k, keyB) {
				t.Fatalf("another encoder's key %v, the shared one's %v", k, keyB)
			}
		}
		if slices.Equal(keyA, keyB) != sameBits(rowA, rowB) {
			t.Fatalf("keys equal %v, rows equal %v:\n%v\n%v", slices.Equal(keyA, keyB), sameBits(rowA, rowB), keyA, keyB)
		}
	})
}
