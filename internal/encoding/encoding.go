// Package encoding implements LOAM's statistics-free plan vectorization
// (§4, Fig. 4): one-hot operator types, multi-segment hash encodings for
// table and column identifiers (App. B.1), one-hot join forms and
// aggregation functions, multi-hot filter functions, log-min-max-normalized
// numeric attributes, and the four per-stage execution-environment features
// (App. B.2). It produces the tree views the TCN consumes, and each node's
// feature row, from which internal/baselines builds the views of the §7.1
// baselines.
package encoding

import (
	"hash/fnv"
	"math/bits"
	"strconv"
	"sync"

	"loam/internal/cluster"
	"loam/internal/expr"
	"loam/internal/plan"
)

// Config sizes the encoding.
type Config struct {
	// Segments and SegmentDim define the multi-hash identifier encoding of
	// App. B.1: each identifier sets one bit in each of Segments independent
	// SegmentDim-wide segments.
	Segments   int
	SegmentDim int
	// MaxPartitions and MaxColumns bound the log-min-max normalization of
	// the TableScan numeric attributes.
	MaxPartitions float64
	MaxColumns    float64
}

// DefaultConfig matches the experiments' encoder.
func DefaultConfig() Config {
	return Config{Segments: 5, SegmentDim: 8, MaxPartitions: 4096, MaxColumns: 64}
}

// Encoder vectorizes plans under one configuration. It is safe for
// concurrent use: past construction, the one thing it writes is its memo of
// identifier hash bits, under the memo's own lock.
type Encoder struct {
	cfg    Config
	idDim  int
	dim    int
	layout layout
	ids    identMemo
}

// layout records the feature offsets for documentation and tests.
type layout struct {
	opOff, opLen         int
	tableOff             int
	scanNumOff           int // partitions, columns (2)
	joinFormOff          int
	joinColsOff          int
	aggFnOff             int
	aggColsOff, groupOff int
	filterFnOff          int
	filterColsOff        int
	predNumOff           int // predicate size (1)
	dopOff               int // parallelism hint (1)
	envOff               int // 4 env features
	hasEnvOff            int // 1 indicator
}

// NewEncoder builds an encoder.
func NewEncoder(cfg Config) *Encoder {
	if cfg.Segments <= 0 {
		cfg.Segments = 5
	}
	if cfg.SegmentDim <= 0 {
		cfg.SegmentDim = 8
	}
	e := &Encoder{cfg: cfg, idDim: cfg.Segments * cfg.SegmentDim}
	if e.ids.width = bits.Len(uint(cfg.SegmentDim - 1)); cfg.Segments*e.ids.width > 64 {
		e.ids.width = -1
	}
	off := 0
	adv := func(n int) int {
		o := off
		off += n
		return o
	}
	e.layout.opOff = adv(plan.NumOpTypes)
	e.layout.opLen = plan.NumOpTypes
	e.layout.tableOff = adv(e.idDim)
	e.layout.scanNumOff = adv(2)
	e.layout.joinFormOff = adv(plan.NumJoinForms)
	e.layout.joinColsOff = adv(e.idDim)
	e.layout.aggFnOff = adv(plan.NumAggFuncs)
	e.layout.aggColsOff = adv(e.idDim)
	e.layout.groupOff = adv(e.idDim)
	e.layout.filterFnOff = adv(expr.NumFuncs)
	e.layout.filterColsOff = adv(e.idDim)
	e.layout.predNumOff = adv(1)
	e.layout.dopOff = adv(1)
	e.layout.envOff = adv(4)
	e.layout.hasEnvOff = adv(1)
	e.dim = off
	return e
}

// Dim returns the per-node feature dimensionality.
func (e *Encoder) Dim() int { return e.dim }

// Config returns the configuration the encoder was built with.
func (e *Encoder) Config() Config { return e.cfg }

// FNV-1a, inlined so the per-node hot path never allocates a hasher or a
// []byte copy of the identifier. Bit-identical to hash/fnv's New64a over the
// same byte sequence (see TestInlineFNVMatchesStdlib).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// hashID sets the multi-segment encoding bits of an identifier into w
// starting at off — App. B.1's 5×N′ scheme with independent per-segment hash
// functions (implemented as salted FNV), unioning naturally across multiple
// identifiers.
func (e *Encoder) hashID(w keyWriter, off int, id string) keyWriter {
	return e.setIdent(w, off, ident{ref: expr.ColumnRef{Table: id}})
}

// hashCol hashes a column reference identically to
// hashID(w, off, c.String()) without materializing the "table.column"
// string.
func (e *Encoder) hashCol(w keyWriter, off int, c expr.ColumnRef) keyWriter {
	return e.setIdent(w, off, ident{ref: c, col: true})
}

// ident is an identifier the encoder hashes: a table id in ref.Table alone,
// or with col the column ref.Table+"."+ref.Column.
type ident struct {
	ref expr.ColumnRef
	col bool
}

// bucket is the bit id sets in segment s of a dim-wide segment: its FNV-1a
// salted with s+1, avalanched.
func (id ident) bucket(s, dim int) int {
	h := fnvString(fnvByte(fnvOffset64, byte(s+1)), id.ref.Table)
	if id.col {
		h = fnvString(fnvByte(h, '.'), id.ref.Column)
	}
	return int(avalanche(h) % uint64(dim))
}

// setIdent sets id's bit in each segment, the segments starting at off.
func (e *Encoder) setIdent(w keyWriter, off int, id ident) keyWriter {
	dim, width := e.cfg.SegmentDim, e.ids.width
	if width < 0 {
		for s := range e.cfg.Segments {
			w = w.one(off + s*dim + id.bucket(s, dim))
		}
		return w
	}
	b, mask := e.identBits(id), uint64(1)<<width-1
	for s := range e.cfg.Segments {
		w = w.one(off + s*dim + int(b>>(s*width)&mask))
	}
	return w
}

// maxIdents bounds an encoder's identifier memo: about twice the tables and
// columns of the largest catalog the experiments build (project3: 85 tables,
// 1,811 columns).
const maxIdents = 4096

// identMemo holds each identifier's Segments buckets packed into one word,
// segment s at bits [s*width, (s+1)*width): they are a function of the
// identifier and the configuration alone, so an entry never goes stale. It is
// read under RLock and written under Lock; a full memo computes without
// storing.
type identMemo struct {
	mu    sync.RWMutex
	bits  map[ident]uint64
	width int // bits per bucket; -1 when Segments buckets do not fit a word
}

// identBits returns id's packed buckets, from the memo when it holds them.
func (e *Encoder) identBits(id ident) uint64 {
	m := &e.ids
	m.mu.RLock()
	b, ok := m.bits[id]
	full := len(m.bits) >= maxIdents
	m.mu.RUnlock()
	if ok {
		return b
	}
	for s := range e.cfg.Segments {
		b |= uint64(id.bucket(s, e.cfg.SegmentDim)) << (s * m.width)
	}
	if full {
		return b
	}
	m.mu.Lock()
	if m.bits == nil {
		m.bits = make(map[ident]uint64)
	}
	if len(m.bits) < maxIdents {
		m.bits[id] = b
	}
	m.mu.Unlock()
	return b
}

// avalanche mixes high bits into low bits (splitmix64 finalizer). FNV-1a's
// low bits alone depend only on the input bytes' low bits, which would make
// small segment widths collide systematically.
func avalanche(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// EnvSource supplies per-node environment features. ok=false means the
// environment is unobserved for that node. It must be a pure function of the
// node — the same node, the same answer — as FixedEnv, NoEnv and RecordEnv
// are: AppendForest looks a node up once however many of the plans it is
// handed share it.
type EnvSource func(n *plan.Node) (env [4]float64, ok bool)

// RecordEnv adapts an execution record's per-stage environments into an
// EnvSource.
func RecordEnv(nodeEnv func(*plan.Node) (cluster.Metrics, bool)) EnvSource {
	return func(n *plan.Node) ([4]float64, bool) {
		m, ok := nodeEnv(n)
		if !ok {
			return [4]float64{}, false
		}
		return m.Normalized(), true
	}
}

// FixedEnv returns an EnvSource that assigns the same environment vector to
// every node — the §5 inference strategies.
func FixedEnv(env [4]float64) EnvSource {
	return func(*plan.Node) ([4]float64, bool) { return env, true }
}

// NoEnv marks every node's environment as unobserved (the LOAM-NL variant).
func NoEnv() EnvSource {
	return func(*plan.Node) ([4]float64, bool) { return [4]float64{}, false }
}

// RankerDim is the dimension of RankerFeatures output: 1 (operator count) +
// patternBuckets (parent-child pattern counts) + 3 (top table sizes) + 1
// (plan cost).
const (
	patternBuckets = 48
	RankerDim      = 1 + patternBuckets + 3 + 1
)

// RankerFeatures implements App. D.2's lightweight plan vectorization for
// the project-selection Ranker: total operator count, hashed parent-child
// operator-pattern counts, the top-3 input table sizes, and the plan's
// execution cost. Features are log-min-max normalized and deliberately
// project-agnostic (no table or column identifiers) so a ranker trained on
// some projects transfers to others.
func RankerFeatures(p *plan.Plan, cost float64, tableRows func(string) float64) []float64 {
	v := make([]float64, RankerDim)
	total := 0.0
	var sizes []float64
	p.Root.Walk(func(n *plan.Node) {
		total++
		if n.Op == plan.OpTableScan && tableRows != nil {
			sizes = append(sizes, tableRows(n.Table))
		}
		for _, c := range n.Children {
			h := fnv.New64a()
			_, _ = h.Write([]byte(strconv.Itoa(int(n.Op)) + ">" + strconv.Itoa(int(c.Op))))
			v[1+int(h.Sum64()%patternBuckets)]++
		}
	})
	v[0] = plan.LogNorm(total, 256)
	for i := 1; i <= patternBuckets; i++ {
		v[i] = plan.LogNorm(v[i], 64)
	}
	// Top-3 largest table sizes.
	for i := 0; i < 3 && i < len(sizes); i++ {
		max, maxJ := -1.0, -1
		for j, s := range sizes {
			if s > max {
				max, maxJ = s, j
			}
		}
		v[1+patternBuckets+i] = plan.LogNorm(max, 1e9)
		sizes[maxJ] = -2
	}
	v[1+patternBuckets+3] = plan.LogNorm(cost, 1e9)
	return v
}
