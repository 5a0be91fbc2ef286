// Package encoding implements LOAM's statistics-free plan vectorization
// (§4, Fig. 4): one-hot operator types, multi-segment hash encodings for
// table and column identifiers (App. B.1), one-hot join forms and
// aggregation functions, multi-hot filter functions, log-min-max-normalized
// numeric attributes, and the four per-stage execution-environment features
// (App. B.2). It produces the tree, graph, sequence and flat views the
// different cost-model backbones consume.
package encoding

import (
	"hash/fnv"
	"strconv"

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

// Encoder vectorizes plans under one configuration.
type Encoder struct {
	cfg    Config
	idDim  int
	dim    int
	layout layout
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

// hashID sets the multi-segment encoding bits of an identifier into dst
// starting at off — App. B.1's 5×N′ scheme with independent per-segment hash
// functions (implemented as salted FNV), unioning naturally across multiple
// identifiers.
func (e *Encoder) hashID(dst []float64, off int, id string) {
	for s := 0; s < e.cfg.Segments; s++ {
		h := fnvString(fnvByte(fnvOffset64, byte(s+1)), id)
		pos := int(avalanche(h) % uint64(e.cfg.SegmentDim))
		dst[off+s*e.cfg.SegmentDim+pos] = 1
	}
}

// hashCol hashes a column reference identically to
// hashID(dst, off, c.String()) without materializing the "table.column"
// string.
func (e *Encoder) hashCol(dst []float64, off int, c expr.ColumnRef) {
	for s := 0; s < e.cfg.Segments; s++ {
		h := fnvByte(fnvOffset64, byte(s+1))
		h = fnvString(h, c.Table)
		h = fnvByte(h, '.')
		h = fnvString(h, c.Column)
		pos := int(avalanche(h) % uint64(e.cfg.SegmentDim))
		dst[off+s*e.cfg.SegmentDim+pos] = 1
	}
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

// SeqDim returns the per-token dimension of EncodeSequenceFlatInto output.
func (e *Encoder) SeqDim() int { return e.dim + 1 }

// EncodeFlat pools node features (sum over nodes, element-wise) into a
// single vector of Dim()+1 values — the XGBoost backbone's input. Counts
// rather than binaries preserve multiplicity information.
func (e *Encoder) EncodeFlat(p *plan.Plan, envs EnvSource) []float64 {
	v := make([]float64, e.dim+1)
	row := make([]float64, e.dim)
	count := 0.0
	p.Root.Walk(func(n *plan.Node) {
		env, ok := envs(n)
		e.EncodeNodeInto(row, n, env, ok)
		for i, x := range row {
			v[i] += x
		}
		count++
	})
	// Average the env block so it stays in [0,1] regardless of plan size.
	if count > 0 {
		for i := e.layout.envOff; i < e.layout.envOff+5; i++ {
			v[i] /= count
		}
	}
	v[e.dim] = plan.LogNorm(count, 256)
	return v
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
