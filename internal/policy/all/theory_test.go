package all

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// Theory oracle: under the independent reference model (IRM) the hit
// ratios of LRU and of FIFO have closed forms that owe nothing to this
// repository. Both rest on a characteristic time T that makes the expected
// occupancy equal the cache size C, for object probabilities p_i:
//
//   - LRU, Che, Tung and Wang (IEEE JSAC 2002): object i is resident with
//     probability 1 − e^{−p_i·T}.
//   - FIFO (and RANDOM), Gelenbe (1973), Dan and Towsley (1990): object i
//     is resident with probability p_i·T / (1 + p_i·T).
//
// The hit ratio is Σ p_i · P(i resident). Family{Alpha: a} with every
// other knob zero, at seed 1 (no jitter), is pure IRM Zipf, rank r drawn
// with probability ∝ (r+1)^−a. The simulated hit ratio counts the second
// half of the trace only, once the cache is warm.

const (
	oracleObjects  = 30000
	oracleRequests = 1000000
	// oracleTolerance is set from the measured gaps, at most 0.0012 across
	// the twelve cells (lru, α 1.0, 10 %). A cache one object too large or
	// too small moves the 0.1 % cells by about 0.003, past it.
	oracleTolerance = 0.002
)

// zipfProbs returns the IRM probabilities of n ranks at skew alpha.
func zipfProbs(n int, alpha float64) []float64 {
	p := make([]float64, n)
	sum := 0.0
	for i := range p {
		p[i] = math.Pow(float64(i+1), -alpha)
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// characteristic returns the hit ratio when object i is resident with
// probability resident(p_i·T), for the T (found by bisection on log T) at
// which the expected occupancy is c.
func characteristic(p []float64, c int, resident func(x float64) float64) float64 {
	occupancy := func(t float64) float64 {
		sum := 0.0
		for _, pi := range p {
			sum += resident(pi * t)
		}
		return sum
	}
	lo, hi := 1.0, 1.0
	for occupancy(hi) < float64(c) {
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-9*hi; i++ {
		if mid := math.Sqrt(lo * hi); occupancy(mid) < float64(c) {
			lo = mid
		} else {
			hi = mid
		}
	}
	hit := 0.0
	for _, pi := range p {
		hit += pi * resident(pi*hi)
	}
	return hit
}

func TestIRMMatchesTheory(t *testing.T) {
	theory := map[string]func(x float64) float64{
		"lru":  func(x float64) float64 { return 1 - math.Exp(-x) }, // Che
		"fifo": func(x float64) float64 { return x / (1 + x) },      // Gelenbe; Dan and Towsley
	}
	for _, alpha := range []float64{0.8, 1.0} {
		reqs := workload.Family{Name: "irm", Alpha: alpha}.Generate(1, oracleObjects, oracleRequests).Requests
		probs := zipfProbs(oracleObjects, alpha)
		for _, frac := range []float64{0.001, 0.01, 0.10} {
			c := int(frac * oracleObjects)
			for _, name := range []string{"lru", "fifo"} {
				p := core.MustNew(name, c)
				hits := 0
				for i := range reqs {
					if p.Access(&reqs[i]) && i >= len(reqs)/2 {
						hits++
					}
				}
				got := float64(hits) / float64(len(reqs)-len(reqs)/2)
				want := characteristic(probs, c, theory[name])
				t.Logf("α %.1f, %g%%: %s %.4f, theory %.4f", alpha, 100*frac, name, got, want)
				if math.Abs(got-want) > oracleTolerance {
					t.Errorf("α %.1f, cache %d: %s hit ratio %.4f, theory %.4f (tolerance %.4f)",
						alpha, c, name, got, want, oracleTolerance)
				}
			}
		}
	}
}
