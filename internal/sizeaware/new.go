package sizeaware

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy/clock"
	"repro/internal/policy/lru"
	"repro/internal/policy/qd"
)

// byteCapped is what the simulator's lru, clock and qd are once built with
// NewBytes: a core.Policy whose capacity and use are counted in bytes.
type byteCapped interface {
	core.Policy
	Used() int
}

// sized presents a byte-capped simulator policy as a Policy.
type sized struct {
	byteCapped
	name string
}

func (s sized) Name() string         { return s.name }
func (s sized) UsedBytes() int64     { return int64(s.Used()) }
func (s sized) CapacityBytes() int64 { return int64(s.Capacity()) }

// Names returns the policy names New accepts, sorted.
func Names() []string { return []string{"clock", "fifo", "gdsf", "lru", "qdlp"} }

// New constructs the named size-aware policy with the given capacity in
// bytes:
//
//	fifo   size-fifo        clock.NewBytes with a 0-bit counter
//	clock  size-clock       clock.NewBytes with the paper's 2 bits
//	lru    size-lru         lru.NewBytes
//	qdlp   size-qd-lp-fifo  qd.NewBytes in front of a 2-bit clock.NewBytes
//	gdsf   gdsf             NewGDSF
func New(policy string, capacityBytes int64) (Policy, error) {
	if capacityBytes <= 0 {
		return nil, fmt.Errorf("sizeaware: capacity must be positive, got %d", capacityBytes)
	}
	capacity := int(capacityBytes)
	switch policy {
	case "fifo":
		return sized{clock.NewBytes(capacity, 0), "size-fifo"}, nil
	case "clock":
		return sized{clock.NewBytes(capacity, 2), "size-clock"}, nil
	case "lru":
		return sized{lru.NewBytes(capacity), "size-lru"}, nil
	case "qdlp":
		main := func(mainCap int) core.Policy { return clock.NewBytes(mainCap, 2) }
		return sized{qd.NewBytes(capacity, qd.Options{}, main), "size-qd-lp-fifo"}, nil
	case "gdsf":
		return NewGDSF(capacityBytes), nil
	}
	return nil, fmt.Errorf("sizeaware: unknown policy %q (known: %v)", policy, Names())
}
