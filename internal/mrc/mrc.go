// Package mrc computes miss-ratio curves.
//
// For LRU the curve is exact and single-pass: the classic reuse-distance
// algorithm (Mattson's stack algorithm implemented with a Fenwick tree,
// O(n log n)) yields LRU's miss ratio at every cache size simultaneously.
// For any policy the curve comes from a simulation sweep over sizes, and
// one mechanism makes that cheap, offline (Policy) and online (Online):
// SHARDS spatial sampling (Waldspurger et al., FAST'15 — cited by the
// paper) replayed through miniature simulations of the policy itself
// (Waldspurger et al., ATC'17).
package mrc

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Curve is a miss-ratio curve: MissRatio(Sizes[i]) = Ratios[i].
type Curve struct {
	Policy string    `json:"policy"`
	Sizes  []int     `json:"sizes"`
	Ratios []float64 `json:"miss_ratios"`
}

// At returns the interpolated miss ratio at the given cache size, clamping
// outside the computed range.
func (c Curve) At(size int) float64 {
	if len(c.Sizes) == 0 {
		return 1
	}
	i := sort.SearchInts(c.Sizes, size)
	if i == 0 {
		return c.Ratios[0]
	}
	if i >= len(c.Sizes) {
		return c.Ratios[len(c.Ratios)-1]
	}
	if c.Sizes[i] == size {
		return c.Ratios[i]
	}
	// Linear interpolation between the bracketing points.
	x0, x1 := float64(c.Sizes[i-1]), float64(c.Sizes[i])
	y0, y1 := c.Ratios[i-1], c.Ratios[i]
	f := (float64(size) - x0) / (x1 - x0)
	return y0*(1-f) + y1*f
}

// fenwick is a binary indexed tree over request positions.
type fenwick struct {
	tree []int
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

func (f *fenwick) add(i, delta int) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// prefix returns the sum of [0, i].
func (f *fenwick) prefix(i int) int {
	s := 0
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// ReuseDistances returns, for each request, the number of distinct keys
// referenced since the previous access to the same key, or -1 for first
// accesses (cold misses). This is the LRU stack distance.
func ReuseDistances(reqs []trace.Request) []int {
	dist := make([]int, len(reqs))
	lastPos := make(map[uint64]int, len(reqs)/4+1)
	bit := newFenwick(len(reqs))
	for i := range reqs {
		k := reqs[i].Key
		if p, ok := lastPos[k]; ok {
			// Distinct keys accessed in (p, i) = marked positions there.
			dist[i] = bit.prefix(i-1) - bit.prefix(p)
			bit.add(p, -1)
		} else {
			dist[i] = -1
		}
		bit.add(i, 1)
		lastPos[k] = i
	}
	return dist
}

// LRU computes the exact LRU miss-ratio curve at the given cache sizes
// (which are sorted in place).
func LRU(reqs []trace.Request, sizes []int) Curve {
	sort.Ints(sizes)
	dists := ReuseDistances(reqs)
	// Histogram of reuse distances; cold misses counted separately.
	maxSize := 0
	if len(sizes) > 0 {
		maxSize = sizes[len(sizes)-1]
	}
	// Distances ≥ maxSize and cold misses (d < 0) never hit at any
	// evaluated size, so only the in-range histogram matters.
	hist := make([]int64, maxSize+1)
	for _, d := range dists {
		if d >= 0 && d < len(hist) {
			hist[d]++
		}
	}
	// hits(c) = Σ_{d < c} hist[d]: an LRU cache of c objects hits exactly
	// the references with stack distance < c.
	curve := Curve{Policy: "lru", Sizes: append([]int(nil), sizes...)}
	var cum int64
	next := 0
	for c := 0; c <= maxSize && next < len(sizes); c++ {
		if c > 0 {
			cum += hist[c-1]
		}
		for next < len(sizes) && sizes[next] == c {
			miss := 1 - float64(cum)/float64(len(reqs))
			curve.Ratios = append(curve.Ratios, miss)
			next++
		}
	}
	return curve
}

// Policy computes a miss-ratio curve for any registered policy by
// simulating each size (parallelized through the sweep runner). Below rate
// 1 it samples SHARDS-style and simulates miniatures: only requests whose
// key obs.SampleHash puts under rate are replayed, and size s runs as a
// cache of max(1, round(s·rate)) objects. The sample is the one the live
// estimator keeps, so offline and online curves agree on it exactly.
func Policy(tr *trace.Trace, policy string, sizes []int, rate float64, workers int) (Curve, error) {
	if rate <= 0 || rate > 1 {
		return Curve{}, fmt.Errorf("mrc: sample rate %v outside (0, 1]", rate)
	}
	sort.Ints(sizes)
	c := Curve{Policy: policy, Sizes: append([]int(nil), sizes...)}
	if rate < 1 {
		tr = sample(tr, rate)
		c.Policy += "~shards"
	}
	jobs := make([]sim.Job, len(sizes))
	for i, s := range sizes {
		if rate < 1 {
			s = max(1, int(math.Round(float64(s)*rate)))
		}
		jobs[i] = sim.Job{Trace: tr, Policy: policy, Capacity: s}
	}
	results, err := sim.RunSweep(jobs, workers)
	if err != nil {
		return Curve{}, err
	}
	for _, r := range results {
		c.Ratios = append(c.Ratios, r.MissRatio())
	}
	return c, nil
}

// sample returns a copy of tr holding only the requests whose key falls
// under the spatial sampling rate.
func sample(tr *trace.Trace, rate float64) *trace.Trace {
	threshold := uint64(rate * (1 << 32))
	out := &trace.Trace{Name: tr.Name, Class: tr.Class}
	for _, r := range tr.Requests {
		if obs.SampleHash(r.Key)&0xffffffff < threshold {
			out.Requests = append(out.Requests, r)
		}
	}
	return out
}

// LogSizes returns n cache sizes log-spaced between lo and hi inclusive.
func LogSizes(lo, hi, n int) []int {
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	if n < 2 {
		return []int{hi}
	}
	out := make([]int, 0, n)
	ratio := float64(hi) / float64(lo)
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		v := int(float64(lo) * math.Pow(ratio, f))
		if len(out) == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
