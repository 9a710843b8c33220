package lhd

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy/clock"
	"repro/internal/policy/policytest"
	"repro/internal/workload"
)

func TestConformance(t *testing.T) {
	policytest.RunConformance(t, func(c int) core.Policy { return New(c, 1) })
}

// After enough signal, frequently reused objects must have higher estimated
// hit density than one-hit wonders, and LHD should beat FIFO on a skewed
// workload.
func TestBeatsFIFOOnZipf(t *testing.T) {
	tr := workload.Family{Name: "zipf", Alpha: 1.0, OneHitFrac: 0.3}.Generate(5, 5000, 120000)
	cap := 250
	lhdMR := policytest.MissRatio(New(cap, 1), tr.Requests)
	fifoMR := policytest.MissRatio(clock.New(cap, 0), tr.Requests)
	if lhdMR >= fifoMR {
		t.Fatalf("LHD (%.4f) not better than FIFO (%.4f) on zipf+one-hit workload", lhdMR, fifoMR)
	}
}

// The residents slice and map stay in sync (the swap-remove bookkeeping).
func TestResidentIndex(t *testing.T) {
	p := New(32, 1)
	reqs := policytest.Workload(9, 10000, 300)
	for i := range reqs {
		p.Access(&reqs[i])
		if len(p.resident) != len(p.byKey) {
			t.Fatalf("req %d: resident %d != map %d", i, len(p.resident), len(p.byKey))
		}
	}
	for i, e := range p.resident {
		if e.idx != i {
			t.Fatalf("resident[%d].idx = %d", i, e.idx)
		}
		if p.byKey[e.key] != e {
			t.Fatalf("map does not point at resident %d", i)
		}
	}
}

// The age coarsening adapts instead of letting every event clip into the
// last bin.
func TestAgeShiftAdapts(t *testing.T) {
	p := New(16, 1)
	initial := p.ageShift
	// Long re-reference distances: ages exceed maxAge << ageShift.
	var keys []uint64
	for round := 0; round < 6; round++ {
		for k := uint64(0); k < 3000; k++ {
			keys = append(keys, k)
		}
	}
	reqs := policytest.KeysToRequests(keys)
	for i := range reqs {
		p.Access(&reqs[i])
	}
	if p.ageShift <= initial {
		t.Fatalf("ageShift stayed at %d despite constant overflow", p.ageShift)
	}
}

// Densities stay finite and non-negative after reconfiguration.
func TestDensityTableSane(t *testing.T) {
	p := New(64, 1)
	reqs := policytest.Workload(15, 20000, 500)
	for i := range reqs {
		p.Access(&reqs[i])
	}
	for c := 0; c < numClasses; c++ {
		for a := 0; a < maxAge; a++ {
			d := p.density[c][a]
			if d < 0 || d != d { // negative or NaN
				t.Fatalf("density[%d][%d] = %v", c, a, d)
			}
		}
	}
}
