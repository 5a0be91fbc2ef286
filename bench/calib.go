package main

import (
	"runtime"
	"sort"
	"strconv"

	"loam/internal/walltime"
)

// kernelAllocs measures what one kernel iteration allocates, so that the
// clients' think() calls can be taken back out of allocs_per_op and
// runtime.bytes_per_op. The kernel's allocation count is fixed by its code.
func kernelAllocs() (mallocs, bytes float64) {
	const n = 2000
	var sink float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calibrate(&sink, n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// calibNode is a node of the calibration kernel's tree.
type calibNode struct {
	key         string
	cost        float64
	left, right *calibNode
}

// calibRefSeconds is one kernel iteration on the reference 2-vCPU box when
// nothing else runs on it: machine speed 1.0.
const calibRefSeconds = 6.7e-6

// thinkIters is how many kernel iterations a client runs between two
// requests (~15 us against requests of 600-3000 us).
const thinkIters = 2

// calibrate runs the calibration kernel n times and returns the seconds it
// took. The kernel is a fixed piece of optimizer-shaped work owned by the
// harness — build a small tree of heap nodes, index it in a string-keyed map,
// walk it accumulating float costs, sort the costs — so its speed tracks what
// the box gives the program (allocation, pointer chasing, hashing, float math)
// and no change to the program can alter it. sink keeps the result live.
func calibrate(sink *float64, n int) float64 {
	sw := walltime.Start()
	for it := 0; it < n; it++ {
		index := make(map[string]*calibNode, 32)
		var root *calibNode
		for i := 0; i < 32; i++ {
			nd := &calibNode{key: "t" + strconv.Itoa((i*37+it)%101), cost: float64(i%7) + 0.5}
			index[nd.key] = nd
			if root == nil {
				root = nd
				continue
			}
			for cur := root; ; {
				next := &cur.left
				if nd.key >= cur.key {
					next = &cur.right
				}
				if *next == nil {
					*next = nd
					break
				}
				cur = *next
			}
		}
		costs := make([]float64, 0, 32)
		var walk func(nd *calibNode, depth float64)
		walk = func(nd *calibNode, depth float64) {
			if nd == nil {
				return
			}
			walk(nd.left, depth+1)
			if hit := index[nd.key]; hit != nil {
				costs = append(costs, hit.cost*depth+1/(depth+1))
			}
			walk(nd.right, depth+1)
		}
		walk(root, 1)
		sort.Float64s(costs)
		*sink += costs[len(costs)/2]
	}
	return sw.Seconds()
}
