package predictor

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"loam/internal/encoding"
	"loam/internal/plan"
)

// This file is the TCN predictor's plan memo: the estimate of every plan
// serving scored, kept across requests under what the plan encodes to.
//
// Identity. A feature row's identity is its key (encoding.AppendNodeKey),
// its exact content. A plan's identity is its preorder list of (row
// identity, has-left, has-right), which determines the binary tree, so every
// layer's input and the rows pooled, in pooling order. Keys are compared
// word for word; a hash only picks where to look.
//
// Exactness. TreeConv.ForwardInfer computes an output row from its three
// input rows alone, pooling reads the plan's own rows in preorder, and the
// projection and cost head score each row alone, so an estimate is a
// function of the plan's identity, the weights and the label normalization:
// the one a request stored is, bit for bit, the one any later request would
// compute.
//
// Lifetime. The memo lives and dies with its predictor's weights, frozen
// once Train or Load returns; whatever writes weights into a predictor
// empties its memo (setParams, through ResetPlanMemo).
//
// Bound. The memo's arrays hold at most memoBytes; a store that would pass
// it drops the whole memo first. Arrays grow by append and are counted by
// capacity, which append rounds to the heap's size classes, and slot arrays
// are a power of two of at least 512 bytes, itself a size class, so the
// bytes counted are the bytes the heap holds.
//
// Locking. Lookups read under RLock; a pass stores what the memo did not
// know under one Lock, each plan identity together with its estimate.

// memoBytes caps the bytes one plan memo holds.
const memoBytes = 2 << 20

// planMemo is one TCN predictor's memo of plan estimates.
type planMemo struct {
	mu    sync.RWMutex
	rows  memoTable // feature rows, by key
	plans memoTable // plans, by preorder (row identity, child flags)
	est   []float64 // plan identity i's estimate

	limit            int          // memoBytes; tests lower it
	oneBucket        bool         // test hook: every key hashes to 0
	scored, answered atomic.Int64 // plans looked up, and those the memo answered
}

func newPlanMemo() *planMemo { return &planMemo{limit: memoBytes} }

// memoTable interns keys into identities, numbered in the order they were
// added.
type memoTable struct {
	keys  []uint32 // every identity's key, back to back
	ends  []int32  // identity i's key ends at keys[ends[i]] and starts where i-1's ends
	slots []int32  // open-addressed: an identity + 1, 0 when free
}

func (t *memoTable) key(id int32) []uint32 {
	lo := int32(0)
	if id > 0 {
		lo = t.ends[id-1]
	}
	return t.keys[lo:t.ends[id]]
}

// find returns key's identity, or -1 and the free slot it would take.
func (t *memoTable) find(key []uint32, h uint64) (int32, uint64) {
	if len(t.slots) == 0 {
		return -1, 0
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if id := t.slots[i] - 1; id < 0 || slices.Equal(t.key(id), key) {
			return id, i
		}
	}
}

// add returns key's identity, adding it when it is new. The arrays must have
// room (grow).
func (t *memoTable) add(key []uint32, h uint64) (int32, bool) {
	id, i := t.find(key, h)
	if id >= 0 {
		return id, false
	}
	id = int32(len(t.ends))
	t.keys = append(t.keys, key...)
	t.ends = append(t.ends, int32(len(t.keys)))
	t.slots[i] = id + 1
	return id, true
}

// grow makes room for n more identities of words key words in all, keeping
// the slots at most half full.
func (t *memoTable) grow(n, words int, m *planMemo) {
	t.keys = slices.Grow(t.keys, words)
	t.ends = slices.Grow(t.ends, n)
	size := max(128, 1<<bits.Len(uint(2*(len(t.ends)+n)-1)))
	if size <= len(t.slots) {
		return
	}
	t.slots = make([]int32, size)
	mask := uint64(size - 1)
	for id := range int32(len(t.ends)) {
		i := m.hash(encoding.KeyHash(t.key(id))) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = id + 1
	}
}

// hash is h, or 0 under the oneBucket test hook.
func (m *planMemo) hash(h uint64) uint64 {
	if m.oneBucket {
		return 0
	}
	return h
}

// memoScratch is one pass's view of the memo.
type memoScratch struct {
	ids   []int32      // each forest row's memo identity, -1 when unknown
	key   []uint32     // one plan's key
	miss  []int        // the positions of the plans the memo did not answer
	plans []*plan.Plan // those plans
	costs []float64    // and their estimates
}

// planKey writes plan k of f's key from the rows' identities, or reports
// that a row is unknown.
func (s *memoScratch) planKey(f *encoding.Forest, k int) bool {
	s.key = s.key[:0]
	for _, e := range f.PlanNodes(k) {
		id := s.ids[f.Row[e]]
		if id < 0 {
			return false
		}
		w := uint32(id) << 2
		if f.Left[e] >= 0 {
			w |= 2
		}
		if f.Right[e] >= 0 {
			w |= 1
		}
		s.key = append(s.key, w)
	}
	return true
}

// recall writes the estimate of every plan of f the memo knows into costs
// and lists the others in s.miss, in order.
func (m *planMemo) recall(s *memoScratch, f *encoding.Forest, costs []float64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s.ids, s.miss = s.ids[:0], s.miss[:0]
	for r := range f.Rows() {
		key, h := f.RowKey(r)
		id, _ := m.rows.find(key, m.hash(h))
		s.ids = append(s.ids, id)
	}
	for k := range costs {
		id := int32(-1)
		if s.planKey(f, k) {
			id, _ = m.plans.find(s.key, m.hash(encoding.KeyHash(s.key)))
		}
		if id < 0 {
			s.miss = append(s.miss, k)
			continue
		}
		costs[k] = m.est[id]
	}
	m.scored.Add(int64(len(costs)))
	m.answered.Add(int64(len(costs) - len(s.miss)))
}

// store adds every plan of f, plan k with the estimate costs[k]. A memo that
// would pass its limit is dropped whole first; a pass that alone would is
// not kept.
func (m *planMemo) store(s *memoScratch, f *encoding.Forest, costs []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.grow(f, len(costs)); m.bytes() > m.limit {
		m.release()
		if m.grow(f, len(costs)); m.bytes() > m.limit {
			m.release()
			return
		}
	}
	s.ids = s.ids[:0]
	for r := range f.Rows() {
		key, h := f.RowKey(r)
		id, _ := m.rows.add(key, m.hash(h))
		s.ids = append(s.ids, id)
	}
	for k, c := range costs {
		s.planKey(f, k)
		if _, added := m.plans.add(s.key, m.hash(encoding.KeyHash(s.key))); added {
			m.est = append(m.est, c)
		}
	}
}

// grow makes room for every row and plan of f, as if each were new.
func (m *planMemo) grow(f *encoding.Forest, plans int) {
	words := 0
	for r := range f.Rows() {
		key, _ := f.RowKey(r)
		words += len(key)
	}
	m.rows.grow(f.Rows(), words, m)
	m.plans.grow(plans, len(f.Nodes()), m)
	m.est = slices.Grow(m.est, plans)
}

// reset empties the memo, keeping its arrays.
func (m *planMemo) reset() {
	for _, t := range []*memoTable{&m.rows, &m.plans} {
		t.keys, t.ends = t.keys[:0], t.ends[:0]
		clear(t.slots)
	}
	m.est = m.est[:0]
}

// release drops the whole memo, arrays and all.
func (m *planMemo) release() {
	m.rows, m.plans, m.est = memoTable{}, memoTable{}, nil
}

// bytes is what the memo's arrays hold.
func (m *planMemo) bytes() int {
	n := 8 * cap(m.est)
	for _, t := range []*memoTable{&m.rows, &m.plans} {
		n += 4*cap(t.keys) + 4*cap(t.ends) + 4*len(t.slots)
	}
	return n
}
