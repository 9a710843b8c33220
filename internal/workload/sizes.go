package workload

import (
	"math"

	"repro/internal/trace"
)

// AssignSizes gives every request a per-key deterministic object size drawn
// from a log-normal distribution with the given median (in bytes) and
// sigma ≈ 1.2 — the heavy-tailed shape reported for web object sizes. The
// same key always gets the same size, so traces stay coherent; sizes are
// clamped to [64, 64·median] to keep single objects from dwarfing a cache.
//
// The paper's experiments assume uniform sizes; sized traces feed the
// size-aware extension: the byte-capped policies (clock, lru and qd built
// with NewBytes, and gdsf) replayed by internal/sim.
func AssignSizes(tr *trace.Trace, medianBytes int) {
	if medianBytes < 64 {
		medianBytes = 64
	}
	maxSize := uint32(64 * medianBytes)
	for i := range tr.Requests {
		tr.Requests[i].Size = sizeOf(tr.Requests[i].Key, float64(medianBytes), maxSize)
	}
}

func sizeOf(key uint64, median float64, maxSize uint32) uint32 {
	// Two independent uniforms from the key hash drive Box–Muller.
	h1 := splitmix64(key ^ 0xabcdef1234567890)
	h2 := splitmix64(h1)
	u1 := (float64(h1>>11) + 1) / (1 << 53) // (0,1]
	u2 := float64(h2>>11) / (1 << 53)       // [0,1)
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	const sigma = 1.2
	s := median * math.Exp(sigma*z)
	if s < 64 {
		s = 64
	}
	if s > float64(maxSize) {
		s = float64(maxSize)
	}
	return uint32(s)
}
