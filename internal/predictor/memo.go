package predictor

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"loam/internal/encoding"
	"loam/internal/nn"
)

// This file is the TCN's class memo: the layer classes serving convolved,
// kept across requests, each last-layer class with its activation row.
//
// Identity. A feature row's identity is its exact content — the Float64bits
// of its nonzero elements, with their columns — and a layer-k class's
// identity is the triple of the layer-(k-1) identities of itself and of its
// left and right children (an absent child has a value of its own). Keys are
// compared word for word; a hash only picks where to look.
//
// Exactness. TreeConv.ForwardInfer computes an output row from its three
// input rows alone, so a class's last-layer row is a function of its
// identity and the weights: the row one request stored is, bit for bit, the
// row any later request would convolve for that class. A pass whose every
// last-layer class is known pools straight from the memo; any other runs the
// forest forward and stores what it convolved.
//
// Lifetime. The memo belongs to one backbone and its weights, which are
// frozen once Train or Load returns; a retrain or promote installs a new
// predictor, and with it a new memo. Whatever writes weights into a backbone
// empties its memo (setParams, through ResetClassMemo).
//
// Bound. The memo's arrays hold at most memoBytes; a store that would pass
// it drops the whole memo first. Arrays grow by append and are counted by
// capacity, which append rounds to the heap's size classes, and slot arrays
// are a power of two of at least 512 bytes, itself a size class, so the
// bytes counted are the bytes the heap holds.
//
// Locking. Lookups read under RLock; a store adds every identity of its pass
// under the write lock. A last-layer identity is added only together with
// its row, so no reader finds an identity without one.

// memoBytes caps the bytes one class memo holds.
const memoBytes = 2 << 20

// classMemo is one TCN backbone's memo of layer classes.
type classMemo struct {
	mu   sync.RWMutex
	tabs []memoTable // tabs[0]: feature rows; tabs[k]: layer-k classes

	// The last layer's rows, held sparse: class i's elements whose bits are
	// not zero are vals[valEnd[i-1]:valEnd[i]], at the columns set in
	// masks[i*words:(i+1)*words]; the others are +0.
	masks  []uint64
	vals   []float64
	valEnd []int32
	width  int
	words  int // mask words per row

	limit        int          // memoBytes; tests lower it
	oneBucket    bool         // test hook: every key hashes to 0
	passes, hits atomic.Int64 // scoring passes, and those pooled from the memo
}

func newClassMemo(layers, width int) *classMemo {
	return &classMemo{tabs: make([]memoTable, layers+1), width: width, words: (width + 63) / 64, limit: memoBytes}
}

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

// find returns key's identity, or -1.
func (t *memoTable) find(key []uint32, h uint64) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		id := t.slots[i] - 1
		if id < 0 || slices.Equal(t.key(id), key) {
			return id
		}
	}
}

// add returns key's identity, adding it when it is new. The arrays must have
// room (grow).
func (t *memoTable) add(key []uint32, h uint64) (id int32, added bool) {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if id = t.slots[i] - 1; id < 0 {
			id = int32(len(t.ends))
			t.keys = append(t.keys, key...)
			t.ends = append(t.ends, int32(len(t.keys)))
			t.slots[i] = id + 1
			return id, true
		}
		if slices.Equal(t.key(id), key) {
			return id, false
		}
	}
}

// grow makes room for n more identities of words key words in all, keeping
// the slots at most half full.
func (t *memoTable) grow(n, words int, m *classMemo) {
	t.keys = slices.Grow(t.keys, words)
	t.ends = slices.Grow(t.ends, n)
	size := max(128, 1<<bits.Len(uint(2*(len(t.ends)+n)-1)))
	if size <= len(t.slots) {
		return
	}
	t.slots = make([]int32, size)
	mask := uint64(size - 1)
	for id := range int32(len(t.ends)) {
		i := m.hashKey(t.key(id)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = id + 1
	}
}

// memoScratch is one pass's view of the memo: its feature rows' keys and one
// layer's classes' identities.
type memoScratch struct {
	keys       []uint32 // the forest's feature rows' keys, back to back
	ends       []int    // row r's key ends at keys[ends[r]]
	hash       []uint64 // row r's key's hash
	ids, below []int32  // a layer's classes' identities, and the layer below's
}

func (s *memoScratch) rowKey(r int) []uint32 {
	lo := 0
	if r > 0 {
		lo = s.ends[r-1]
	}
	return s.keys[lo:s.ends[r]]
}

// rowKeys writes every feature row's key, and its hash, outside the lock. A
// nonzero element equal to 1, which a feature row is mostly made of, is one
// word, its column shifted with the low bit set; any other is its column
// shifted, then its bits in two words.
func (m *classMemo) rowKeys(s *memoScratch, f *encoding.Forest, dim int) {
	s.keys, s.ends, s.hash = s.keys[:0], s.ends[:0], s.hash[:0]
	for r := range f.Rows() {
		lo, row := len(s.keys), f.Feats[r*dim:(r+1)*dim]
		for i := 0; i < len(row); i++ {
			if i+4 <= len(row) && math.Float64bits(row[i])|math.Float64bits(row[i+1])|math.Float64bits(row[i+2])|math.Float64bits(row[i+3]) == 0 {
				i += 3
				continue
			}
			switch b := math.Float64bits(row[i]); b {
			case 0:
			case math.Float64bits(1):
				s.keys = append(s.keys, uint32(i)<<1|1)
			default:
				s.keys = append(s.keys, uint32(i)<<1, uint32(b>>32), uint32(b))
			}
		}
		s.ends = append(s.ends, len(s.keys))
		s.hash = append(s.hash, m.hashKey(s.keys[lo:]))
	}
}

// triple is class j's key at a layer: the identities one layer down of its
// own class and its children's, math.MaxUint32 for an absent child.
func triple(below []int32, ly *classLayer, j int) [3]uint32 {
	at := func(c int) uint32 {
		if c < 0 {
			return math.MaxUint32
		}
		return uint32(below[c])
	}
	return [3]uint32{at(ly.self[j]), at(ly.left[j]), at(ly.right[j])}
}

func (m *classMemo) hashKey(key []uint32) uint64 {
	if m.oneBucket {
		return 0
	}
	h := uint64(len(key)) * 0x9e3779b97f4a7c15
	for _, w := range key {
		h = (h ^ uint64(w)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// recall maps the pass's classes onto memo identities, layer by layer, and
// when every last-layer class is known returns their rows, one per class in
// the class table's order, in an arena matrix.
func (m *classMemo) recall(s *memoScratch, c *classTable, arena *nn.Scratch) (nn.Mat, bool) {
	m.passes.Add(1)
	m.mu.RLock()
	defer m.mu.RUnlock()
	s.below = s.below[:0]
	for r := range s.ends {
		id := m.tabs[0].find(s.rowKey(r), s.hash[r])
		if id < 0 {
			return nn.Mat{}, false
		}
		s.below = append(s.below, id)
	}
	for k := 1; k < len(m.tabs); k++ {
		ly := &c.layers[k-1]
		s.ids = s.ids[:0]
		for j := range ly.self {
			key := triple(s.below, ly, j)
			id := m.tabs[k].find(key[:], m.hashKey(key[:]))
			if id < 0 {
				return nn.Mat{}, false
			}
			s.ids = append(s.ids, id)
		}
		s.ids, s.below = s.below, s.ids
	}
	x := arena.MatZero(len(s.below), m.width)
	for j, id := range s.below {
		m.rowInto(x.Data[j*m.width:(j+1)*m.width], id)
	}
	m.hits.Add(1)
	return x, true
}

// rowInto writes last-layer class id's row into the zeroed dst.
func (m *classMemo) rowInto(dst []float64, id int32) {
	v := int32(0)
	if id > 0 {
		v = m.valEnd[id-1]
	}
	for w, mask := range m.masks[int(id)*m.words : int(id+1)*m.words] {
		for ; mask != 0; mask &= mask - 1 {
			dst[w*64+bits.TrailingZeros64(mask)] = m.vals[v]
			v++
		}
	}
}

// store adds the pass's classes, layer by layer, and each new last-layer
// class's row of x, the forward's last layer. A memo that would pass its
// limit is dropped whole first; a pass that alone would is not kept.
func (m *classMemo) store(s *memoScratch, c *classTable, x nn.Mat) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.grow(s, c); m.bytes() > m.limit {
		m.release()
		if m.grow(s, c); m.bytes() > m.limit {
			m.release()
			return
		}
	}
	s.below = s.below[:0]
	for r := range s.ends {
		id, _ := m.tabs[0].add(s.rowKey(r), s.hash[r])
		s.below = append(s.below, id)
	}
	last := len(m.tabs) - 1
	for k := 1; k <= last; k++ {
		ly := &c.layers[k-1]
		s.ids = s.ids[:0]
		for j := range ly.self {
			key := triple(s.below, ly, j)
			id, added := m.tabs[k].add(key[:], m.hashKey(key[:]))
			if added && k == last {
				m.appendRow(x.Data[j*m.width : (j+1)*m.width])
			}
			s.ids = append(s.ids, id)
		}
		s.ids, s.below = s.below, s.ids
	}
}

// appendRow stores the next last-layer class's row.
func (m *classMemo) appendRow(row []float64) {
	for w := range m.words {
		var mask uint64
		for i, v := range row[w*64 : min(len(row), (w+1)*64)] {
			if math.Float64bits(v) != 0 {
				mask |= 1 << i
				m.vals = append(m.vals, v)
			}
		}
		m.masks = append(m.masks, mask)
	}
	m.valEnd = append(m.valEnd, int32(len(m.vals)))
}

// grow makes room for every class of the pass, as if each were new.
func (m *classMemo) grow(s *memoScratch, c *classTable) {
	m.tabs[0].grow(len(s.ends), len(s.keys), m)
	for k := 1; k < len(m.tabs); k++ {
		n := len(c.layers[k-1].self)
		m.tabs[k].grow(n, 3*n, m)
	}
	n := len(c.layers[len(m.tabs)-2].self)
	m.masks = slices.Grow(m.masks, n*m.words)
	m.vals = slices.Grow(m.vals, n*m.width)
	m.valEnd = slices.Grow(m.valEnd, n)
}

// reset empties the memo, keeping its arrays.
func (m *classMemo) reset() {
	for k := range m.tabs {
		t := &m.tabs[k]
		t.keys, t.ends = t.keys[:0], t.ends[:0]
		clear(t.slots)
	}
	m.masks, m.vals, m.valEnd = m.masks[:0], m.vals[:0], m.valEnd[:0]
}

// release drops the whole memo, arrays and all.
func (m *classMemo) release() {
	clear(m.tabs)
	m.masks, m.vals, m.valEnd = nil, nil, nil
}

// bytes is what the memo's arrays hold.
func (m *classMemo) bytes() int {
	n := 8*cap(m.masks) + 8*cap(m.vals) + 4*cap(m.valEnd)
	for k := range m.tabs {
		t := &m.tabs[k]
		n += 4*cap(t.keys) + 4*cap(t.ends) + 4*len(t.slots)
	}
	return n
}
