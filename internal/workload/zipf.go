// Package workload generates the synthetic traces that stand in for the
// paper's 5307 production traces (see DESIGN.md, "Substitutions").
//
// Each of the paper's ten Table-1 dataset collections is modelled as a
// Family: a parameterized mixture of access-pattern components — Zipf
// popularity with catalog drift (popularity decay), sequential scans,
// loops, one-hit wonders, LRU-stack-distance temporal locality, and abrupt
// phase changes — whose parameters are chosen so the family reproduces the
// qualitative behaviour the paper reports for the corresponding dataset.
// Every generator is fully deterministic given a seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^alpha. Unlike math/rand's Zipf it accepts any alpha >= 0
// (production cache workloads cluster around alpha ≈ 0.6–1.2, below
// math/rand's s > 1 requirement).
//
// Sampling inverts a precomputed CDF exactly: a draw takes one u =
// rng.Float64() and returns the first rank i with cdf[i] >= u, the rank
// sort.SearchFloat64s(cdf, u) finds. A guide table (Chen & Asau, 1974)
// finds it in O(1) expected time: u falls in one of G = n/2 equal buckets
// of [0, 1], the guide names the first rank that can answer for that
// bucket, and the answer is at most 1 + n/G = 3 ranks further on average,
// whatever the skew. The next four CDF entries are compared at once,
// without branches; a bucket that holds more ranks (a flat CDF tail packs
// many into one) is binary-searched past them. Memory is 10 bytes per
// rank: the float64 CDF and half an int32.
type Zipf struct {
	cdf   []float64
	guide []int32 // guide[j]: first rank i with bucket(cdf[i]) >= j; G+2 entries
	scale float64 // G: bucket(x) = int(x * scale)
	rng   *rand.Rand
}

const (
	ranksPerBucket = 2 // n/G
	window         = 4 // CDF entries compared at once
)

// NewZipf returns a Zipf sampler over [0, n) with skew alpha, drawing
// randomness from rng.
func NewZipf(rng *rand.Rand, n int, alpha float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("workload: Zipf needs n > 0, got %d", n))
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("workload: Zipf needs n <= 2^31-1, got %d", n))
	}
	if alpha < 0 {
		panic(fmt.Sprintf("workload: Zipf needs alpha >= 0, got %v", alpha))
	}
	cdf := make([]float64, n, n+window-1)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -alpha)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	pad := cdf[n:cap(cdf)]
	for k := range pad {
		pad[k] = 1
	}

	// The guide is built with the bucket expression rank uses. bucket is
	// non-decreasing, so for u in bucket j every rank below guide[j] has
	// cdf < u, and cdf[guide[j+1]] > u: the answer lies in
	// [guide[j], guide[j+1]]. u*G may round up to G for u just below 1;
	// bucket(cdf[n-1]) = bucket(1) = G, so guide[G] = n-1 covers it, and
	// guide[G+1] = n-1 bounds its search.
	g := (n + ranksPerBucket - 1) / ranksPerBucket
	z := &Zipf{cdf: cdf, guide: make([]int32, g+2), scale: float64(g), rng: rng}
	j := 0
	for i, c := range cdf {
		for b := int(c * z.scale); j <= b; j++ {
			z.guide[j] = int32(i)
		}
	}
	z.guide[g+1] = int32(n - 1)
	return z
}

// Next returns the next sampled rank.
func (z *Zipf) Next() int { return z.rank(z.rng.Float64()) }

// rank returns the first rank i with cdf[i] >= u, for u in [0, 1).
func (z *Zipf) rank(u float64) int {
	j := int(u * z.scale)
	i := int(z.guide[j])
	// The answer is i+k, where k counts the CDF entries below u from i
	// on, if it is one of the next four; counting them is branch-free.
	// cdf's capacity runs three 1s past rank n-1 for the last window.
	w := z.cdf[i : i+window : i+window]
	k := b2i(w[0] < u) + b2i(w[1] < u) + b2i(w[2] < u) + b2i(w[3] < u)
	if k < window {
		return i + k
	}
	i += window
	return i + sort.SearchFloat64s(z.cdf[i:z.guide[j+1]+1], u)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// N returns the rank-space size.
func (z *Zipf) N() int { return len(z.cdf) }

// splitmix64 is a strong 64-bit mixing function used to scramble catalog
// indices into key space, so key numeric order carries no locality.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
