package repro

import (
	"fmt"

	"repro/internal/concurrent"
	"repro/internal/core"
	_ "repro/internal/policy/all" // register every eviction policy
	"repro/internal/policy/qdlp"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Policy is a single-threaded eviction policy driven by Access calls; see
// the policy catalogue in PolicyNames. Policies returned by this package
// are not safe for concurrent use — use the Concurrent constructors for
// thread-safe caches.
type Policy = core.Policy

// Request is one cache reference.
type Request = trace.Request

// Trace is an in-memory request sequence.
type Trace = trace.Trace

// Result summarizes a simulation run.
type Result = sim.Result

// Family is a synthetic workload model of one of the paper's Table-1
// dataset collections.
type Family = workload.Family

// QDLPOptions tunes QD-LP-FIFO (probation share, ghost size, CLOCK bits).
type QDLPOptions = qdlp.Options

// The paper's two evaluated cache sizes, as fractions of the trace's
// unique object count.
const (
	SmallCacheFrac = workload.SmallCacheFrac
	LargeCacheFrac = workload.LargeCacheFrac
)

// NewPolicy constructs a registered eviction policy by name.
func NewPolicy(name string, capacity int) (Policy, error) {
	return core.New(name, capacity)
}

// PolicyNames lists every registered eviction policy.
func PolicyNames() []string { return core.Names() }

// NewQDLPFIFO returns the paper's QD-LP-FIFO with canonical parameters
// (10% probationary FIFO, main-sized ghost, 2-bit CLOCK main).
func NewQDLPFIFO(capacity int) Policy { return qdlp.New(capacity) }

// NewQDLPFIFOWithOptions returns QD-LP-FIFO with explicit parameters.
func NewQDLPFIFOWithOptions(capacity int, opts QDLPOptions) Policy {
	return qdlp.NewWithOptions(capacity, opts)
}

// Families returns the ten synthetic dataset families in the paper's
// Table-1 order.
func Families() []Family { return workload.Families() }

// Generate produces a deterministic synthetic trace from the named family.
// It panics on an unknown family name; use workload.FamilyByName for a
// checked lookup.
func Generate(family string, seed int64, objects, requests int) *Trace {
	fam, ok := workload.FamilyByName(family)
	if !ok {
		panic(fmt.Sprintf("repro: unknown workload family %q", family))
	}
	return fam.Generate(seed, objects, requests)
}

// CacheSize returns the cache capacity for a trace with the given unique
// object count at a size fraction (e.g. SmallCacheFrac).
func CacheSize(uniqueObjects int, frac float64) int {
	return workload.CacheSize(uniqueObjects, frac)
}

// Run replays a trace against a policy and returns the result.
func Run(p Policy, tr *Trace) Result { return sim.Run(p, tr) }

// ConcurrentCache is a thread-safe fixed-capacity cache.
type ConcurrentCache = concurrent.Cache

// CacheStats is a point-in-time snapshot of a concurrent cache's operation
// counters and occupancy.
type CacheStats = concurrent.Snapshot

// ConcurrentOption configures NewConcurrent; see WithShards, WithClockBits,
// and WithQDLPOptions in internal/concurrent.
type ConcurrentOption = concurrent.Option

// NewConcurrent constructs a registered thread-safe cache by policy name —
// the concurrent counterpart of NewPolicy:
//
//	c, err := repro.NewConcurrent("qdlp", 1<<20, repro.WithConcurrentShards(64))
func NewConcurrent(policy string, capacity int, opts ...ConcurrentOption) (ConcurrentCache, error) {
	return concurrent.New(policy, capacity, opts...)
}

// ConcurrentNames lists every registered thread-safe cache policy.
func ConcurrentNames() []string { return concurrent.Names() }

// WithConcurrentShards sets the shard count for NewConcurrent.
func WithConcurrentShards(n int) ConcurrentOption { return concurrent.WithShards(n) }
