package gdsf

import (
	"testing"

	"repro/internal/trace"
)

// GDSF prefers evicting large objects at equal frequency.
func TestGDSFPrefersEvictingLarge(t *testing.T) {
	p := NewBytes(1000)
	reqs := []trace.Request{
		{Key: 1, Size: 100}, {Key: 2, Size: 800},
		{Key: 3, Size: 500},
	}
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if !p.Contains(1) {
		t.Fatal("small object evicted before large one")
	}
	if p.Contains(2) {
		t.Fatal("large cold object survived")
	}
}
