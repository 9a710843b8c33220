package mrc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
	"repro/internal/obs"
)

// OnlineConfig configures an Online estimator.
type OnlineConfig struct {
	// Rate is the SHARDS spatial sampling rate in (0, 1]. Required.
	Rate float64
	// Cache builds one miniature: a cache of the served policy holding
	// capacity objects. Required; the server passes its own policy and
	// counter width on one shard.
	Cache func(capacity int) (concurrent.Cache, error)
	// Source, if set, is the staging ring the drain loop consumes. The
	// hot path Offers sampled digests there; Online pulls them out on its
	// own goroutine. Without a Source, feed the estimator via Observe.
	Source *obs.KeySampler
}

// OnlineSnapshot is one published state of the estimator: the miss-ratio
// curve in the real (unscaled) size domain plus the counters needed to
// judge how trustworthy it is.
type OnlineSnapshot struct {
	// At is when the snapshot was built.
	At time.Time
	// Rate is the spatial sampling rate.
	Rate float64
	// TrackedKeys is the number of sampled keys the largest miniature holds.
	TrackedKeys int
	// SampledAccesses counts accesses that passed the spatial filter.
	SampledAccesses int64
	// EstimatedAccesses scales SampledAccesses back to the full stream.
	EstimatedAccesses int64
	// ColdMisses counts the largest miniature's misses: first accesses,
	// and accesses to keys it has since evicted.
	ColdMisses int64
	// Dropped counts staged keys lost before the drain loop saw them.
	Dropped int64
	// MaxSize is the largest real cache size the curve covers.
	MaxSize int
	// Curve is the served policy's estimated miss-ratio curve (Policy
	// "shards-online"), one point per miniature.
	Curve Curve
}

// ScaleSignal is the predicted hit ratio at one multiple of the current
// capacity — the "what would 2× the memory buy me?" answer.
type ScaleSignal struct {
	Scale    float64 `json:"scale"`
	Size     int     `json:"size"`
	HitRatio float64 `json:"hit_ratio"`
}

// Signals are the derived capacity-planning numbers a snapshot yields for a
// concrete current capacity.
type Signals struct {
	CapacityItems int           `json:"capacity_items"`
	BytesPerItem  float64       `json:"bytes_per_item,omitempty"`
	Scales        []ScaleSignal `json:"scales,omitempty"`
	// MarginalHitPerMiB is the hit-ratio gain from one extra MiB of
	// capacity at the current size (0 when the item size is unknown).
	MarginalHitPerMiB float64 `json:"marginal_hit_per_mib"`
}

// scaleFactors are the capacity multiples every snapshot is evaluated at.
var scaleFactors = [...]float64{0.5, 1, 2, 4}

// ScaleFactors returns the capacity multiples (0.5, 1, 2, 4) every snapshot
// is evaluated at, in ScaleLabels order.
func ScaleFactors() []float64 {
	out := make([]float64, len(scaleFactors))
	copy(out, scaleFactors[:])
	return out
}

// ScaleLabels returns the fixed labels ("0.5x", "1x", ...) matching the
// order of Signals.Scales, shared by the metrics and stats surfaces.
func ScaleLabels() []string {
	out := make([]string, len(scaleFactors))
	for i, f := range scaleFactors {
		out[i] = formatScale(f)
	}
	return out
}

func formatScale(f float64) string {
	if f == float64(int(f)) {
		return fmt.Sprintf("%dx", int(f))
	}
	return fmt.Sprintf("%gx", f)
}

// Signals evaluates the snapshot at a concrete capacity. bytesPerItem may
// be zero when unknown (marginal-per-MiB is then zero too).
func (sn *OnlineSnapshot) Signals(capacityItems int, bytesPerItem float64) Signals {
	sig := Signals{CapacityItems: capacityItems, BytesPerItem: bytesPerItem}
	if sn == nil || capacityItems <= 0 || len(sn.Curve.Sizes) == 0 {
		return sig
	}
	for _, f := range scaleFactors {
		size := int(float64(capacityItems) * f)
		sig.Scales = append(sig.Scales, ScaleSignal{
			Scale:    f,
			Size:     size,
			HitRatio: 1 - sn.Curve.At(size),
		})
	}
	if bytesPerItem > 0 {
		itemsPerMiB := float64(1<<20) / bytesPerItem
		hitNow := 1 - sn.Curve.At(capacityItems)
		hitMore := 1 - sn.Curve.At(capacityItems+int(itemsPerMiB))
		sig.MarginalHitPerMiB = hitMore - hitNow
	}
	return sig
}

// The miniatures' capacities in sampled objects: an octave grid from
// minSlots to maxSlots. Below 16 sampled slots the binomial spread of the
// sample (±1/√x relative) drowns the estimate.
const (
	minSlots   = 16
	miniatures = 13
	maxSlots   = minSlots << (miniatures - 1) // 65536
)

// miniature is one scaled-down cache of the served policy and what it
// has seen: hits on the sampled stream, and whether it ever evicted.
type miniature struct {
	c       concurrent.Cache
	hits    int64
	evicted bool
}

// Online estimates the live miss-ratio curve of the served key stream with
// SHARDS spatial sampling and miniature simulation (Waldspurger et al.,
// ATC'17): only keys whose hash falls under Rate are kept, and each one is
// replayed through a ladder of one-shard caches of the served policy whose
// capacities are an octave grid of sampled slots. A miniature of c slots
// stands in for a cache of c/Rate real objects, so the curve is the served
// policy's, not LRU's.
//
// The estimator is fed either by Observe (synchronous, tests and replays)
// or by a Source staging ring drained on a background goroutine (the
// serving path). Snapshots are published atomically; readers never block
// the estimator.
type Online struct {
	rate      float64
	threshold uint64
	src       *obs.KeySampler

	mu      sync.Mutex
	minis   [miniatures]*miniature
	sampled int64

	snap     atomic.Pointer[OnlineSnapshot]
	drainBuf []uint64

	stopOnce sync.Once
	quit     chan struct{}
	done     chan struct{}
}

// NewOnline returns an estimator for the given config.
func NewOnline(cfg OnlineConfig) (*Online, error) {
	if cfg.Rate <= 0 || cfg.Rate > 1 {
		return nil, fmt.Errorf("mrc: online sample rate %v outside (0, 1]", cfg.Rate)
	}
	if cfg.Cache == nil {
		return nil, fmt.Errorf("mrc: online estimator needs a Cache constructor")
	}
	o := &Online{
		rate:      cfg.Rate,
		threshold: uint64(cfg.Rate * (1 << 32)),
		src:       cfg.Source,
	}
	for i := range o.minis {
		c, err := cfg.Cache(minSlots << i)
		if err != nil {
			return nil, err
		}
		m := &miniature{c: c}
		c.SetEvictHook(func(uint64, obs.Reason) { m.evicted = true })
		o.minis[i] = m
	}
	o.snap.Store(o.buildSnapshot())
	return o, nil
}

// Rate returns the spatial sampling rate.
func (o *Online) Rate() float64 { return o.rate }

// Observe feeds one key digest through the spatial filter and, if sampled,
// into the estimator. It is safe for concurrent use but serializes on a
// mutex — the serving path should Offer into a Source sampler instead.
func (o *Online) Observe(id uint64) {
	if obs.SampleHash(id)&0xffffffff >= o.threshold {
		return
	}
	o.mu.Lock()
	o.observeSampled(id)
	o.mu.Unlock()
}

// observeSampled replays one access that already passed the spatial filter
// through every miniature: a get, and a set on a miss. Caller holds o.mu.
func (o *Online) observeSampled(id uint64) {
	for _, m := range o.minis {
		if _, ok := m.c.Get(id); ok {
			m.hits++
		} else {
			m.c.Set(id, 1)
		}
	}
	o.sampled++
}

// buildSnapshot assembles a snapshot from current state. Caller holds o.mu
// (or has exclusive access during construction).
func (o *Online) buildSnapshot() *OnlineSnapshot {
	largest := o.minis[miniatures-1]
	sn := &OnlineSnapshot{
		At:              time.Now(),
		Rate:            o.rate,
		TrackedKeys:     largest.c.Len(),
		SampledAccesses: o.sampled,
		ColdMisses:      o.sampled - largest.hits,
		Dropped:         o.src.Dropped(),
	}
	sn.EstimatedAccesses = int64(float64(o.sampled) / o.rate)
	sn.Curve = Curve{Policy: "shards-online"}
	// One point per miniature, up to the first that never evicted: every
	// larger one holds the same keys and scores the same hits.
	for i, m := range o.minis {
		miss := 1.0
		if o.sampled > 0 {
			miss = 1 - float64(m.hits)/float64(o.sampled)
		}
		slots := minSlots << i
		sn.Curve.Sizes = append(sn.Curve.Sizes, int(math.Round(float64(slots)/o.rate)))
		sn.Curve.Ratios = append(sn.Curve.Ratios, miss)
		if !m.evicted {
			break
		}
	}
	sn.MaxSize = sn.Curve.Sizes[len(sn.Curve.Sizes)-1]
	return sn
}

// Publish drains the Source (if any), rebuilds the snapshot from current
// state, publishes it, and returns it. Safe for concurrent use; the admin
// endpoint calls it so scrapes always see fresh state.
func (o *Online) Publish() *OnlineSnapshot {
	o.mu.Lock()
	if o.src != nil {
		o.drainBuf = o.src.Drain(o.drainBuf[:0])
		for _, id := range o.drainBuf {
			o.observeSampled(id)
		}
	}
	sn := o.buildSnapshot()
	o.mu.Unlock()
	o.snap.Store(sn)
	return sn
}

// Snapshot returns the most recently published snapshot. It never returns
// nil and never blocks the estimator.
func (o *Online) Snapshot() *OnlineSnapshot { return o.snap.Load() }

// Start launches the drain-and-publish loop at the given interval and
// returns a stop function (idempotent, waits for the loop to exit). The
// interval is the staleness bound on Snapshot; Publish is always available
// for callers that need the current state synchronously.
func (o *Online) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	o.quit = make(chan struct{})
	o.done = make(chan struct{})
	go func() {
		defer close(o.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				o.Publish()
			case <-o.quit:
				o.Publish()
				return
			}
		}
	}()
	return func() {
		o.stopOnce.Do(func() { close(o.quit) })
		<-o.done
	}
}
