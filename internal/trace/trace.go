// Package trace defines the request and trace model shared by the whole
// repository: the generators in internal/workload produce traces, the
// simulator in internal/sim replays them against eviction policies, and
// the codecs in this package read and write them on disk.
//
// Following the paper, objects are uniform in size by default; Request.Size
// exists for size-aware extensions but every paper experiment uses Size 1
// and counts cache capacity in objects.
package trace

import (
	"fmt"
	"sort"
)

// Class labels a trace with the broad workload category used by the paper's
// figures, which split results into block and web (Memcached + CDN) traces.
type Class uint8

const (
	// Block identifies block-storage workloads (MSR, FIU, CloudPhysics,
	// Tencent CBS, Alibaba).
	Block Class = iota
	// Web identifies web workloads: object/CDN caches and in-memory
	// key-value caches (Major CDN, Tencent Photo, Wiki CDN, Twitter,
	// Social Network).
	Web
)

// String returns the lowercase class name.
func (c Class) String() string {
	switch c {
	case Block:
		return "block"
	case Web:
		return "web"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// NoFutureAccess marks a request whose key is never requested again.
const NoFutureAccess int64 = -1

// Request is a single cache reference.
type Request struct {
	// Key identifies the object.
	Key uint64
	// Size is the object size. The paper assumes uniform sizes; generators
	// emit 1.
	Size uint32
	// Time is the logical time of the request. The simulator assigns the
	// request index, so policies may treat it as a monotonically
	// non-decreasing clock.
	Time int64
	// NextAccess is the index of the next request to the same key, or
	// NoFutureAccess. It is populated by Annotate and consumed only by
	// offline policies (Belady).
	NextAccess int64
}

// Trace is an in-memory request sequence.
type Trace struct {
	// Name identifies the trace (e.g. "msr-seed3").
	Name string
	// Class is the workload category.
	Class Class
	// Requests is the reference string.
	Requests []Request
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Requests) }

// UniqueObjects returns the number of distinct keys in the trace.
func (t *Trace) UniqueObjects() int {
	seen := newKeyTable[struct{}](len(t.Requests) / 4)
	for i := range t.Requests {
		seen.ref(t.Requests[i].Key)
	}
	return seen.len()
}

// Annotate fills NextAccess for every request in one backward pass and
// normalizes Time to the request index. It must be called before replaying
// a trace against an offline policy.
func Annotate(reqs []Request) {
	last := newKeyTable[int64](len(reqs) / 4)
	for i := len(reqs) - 1; i >= 0; i-- {
		next, added := last.ref(reqs[i].Key)
		if added {
			reqs[i].NextAccess = NoFutureAccess
		} else {
			reqs[i].NextAccess = *next
		}
		*next = int64(i)
		reqs[i].Time = int64(i)
	}
}

// Annotate annotates the trace's requests in place (see the package-level
// Annotate).
func (t *Trace) Annotate() { Annotate(t.Requests) }

// Stats summarizes a trace's access pattern. It is used by cmd/experiments
// to print the Table-1-style dataset inventory.
type Stats struct {
	Requests      int
	Objects       int
	OneHitWonders int     // objects requested exactly once
	MeanFrequency float64 // requests per object
	MaxFrequency  int
	// TopPercentShare is the fraction of requests going to the most
	// popular 1% of objects — a crude skew measure.
	TopPercentShare float64
}

// ComputeStats scans the trace once and returns its Stats.
func (t *Trace) ComputeStats() Stats {
	freq := newKeyTable[int](len(t.Requests) / 4)
	for i := range t.Requests {
		c, _ := freq.ref(t.Requests[i].Key)
		*c++
	}
	s := Stats{Requests: len(t.Requests), Objects: freq.len()}
	if s.Objects == 0 {
		return s
	}
	counts := make([]int, 0, s.Objects)
	freq.values(func(c int) {
		counts = append(counts, c)
		if c == 1 {
			s.OneHitWonders++
		}
		if c > s.MaxFrequency {
			s.MaxFrequency = c
		}
	})
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	s.MeanFrequency = float64(s.Requests) / float64(s.Objects)
	top := len(counts) / 100
	if top == 0 {
		top = 1
	}
	sum := 0
	for _, c := range counts[:top] {
		sum += c
	}
	s.TopPercentShare = float64(sum) / float64(s.Requests)
	return s
}
