package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/trace"
)

// Key namespaces: the top two key bits tag the generating component so the
// scrambled key spaces cannot collide.
const (
	tagCatalog uint64 = 0
	tagOneHit  uint64 = 1
	tagScan    uint64 = 2
	tagLoop    uint64 = 3
)

func makeKey(tag, idx uint64) uint64 {
	return tag<<62 | splitmix64(idx)>>2
}

// Family is a parameterized synthetic workload model standing in for one of
// the paper's Table-1 dataset collections. The zero value is not useful;
// use the constructors or Families.
type Family struct {
	// Name of the modelled dataset collection (lowercase, e.g. "msr").
	Name string
	// Class is block or web, matching the paper's figure split.
	Class trace.Class

	// Alpha is the Zipf skew of the popularity distribution.
	Alpha float64
	// DecayRate is the catalog drift in objects per request: the rate at
	// which new objects arrive and old objects decay in popularity. 0
	// disables popularity decay.
	DecayRate float64
	// OneHitFrac is the fraction of requests addressed to fresh
	// never-reused keys (one-hit wonders, §4).
	OneHitFrac float64
	// ScanFrac is the fraction of requests belonging to sequential scans
	// of ScanLen never-revisited keys.
	ScanFrac float64
	ScanLen  int
	// LoopFrac is the fraction of requests cycling over a fixed window of
	// LoopLen keys (the loop pattern that thrashes LRU).
	LoopFrac float64
	LoopLen  int
	// RecencyFrac is the fraction of requests re-referencing a recently
	// requested key, with reference distance exponentially distributed
	// with mean RecencyScale×objects (minimum 1: a tiny scale yields
	// immediate re-references, i.e. correlated bursts). This component
	// models the temporal locality of first-layer social-network caches:
	// bursts saturate CLOCK's single reference bit, which is the paper's
	// explanation for LRU beating FIFO-Reinsertion on those datasets.
	RecencyFrac  float64
	RecencyScale float64
	// PhaseEvery inserts an abrupt working-set change every PhaseEvery
	// requests, replacing PhaseShiftFrac of the catalog. 0 disables.
	PhaseEvery     int
	PhaseShiftFrac float64

	// DefaultObjects and DefaultRequests set the canonical trace scale for
	// this family (used by cmd/experiments' Table-1 inventory; scaled
	// down by -scale for quick runs).
	DefaultObjects  int
	DefaultRequests int
	// TableTraces is the trace count of the modelled collection in the
	// paper's Table 1 (for the inventory printout).
	TableTraces int
}

// jitter derives per-seed parameter variation, modelling the within-
// collection diversity of real trace datasets (the paper's families contain
// 2–4030 distinct traces each). Seed 1 keeps the canonical parameters, so
// single-trace experiments stay at the family's calibrated center.
func (f Family) jittered(seed int64) Family {
	if seed == 1 {
		return f
	}
	rng := rand.New(rand.NewSource(seed * 7919))
	u := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	f.Alpha *= u(0.85, 1.15)
	f.OneHitFrac *= u(0.6, 1.4)
	f.ScanFrac *= u(0.6, 1.4)
	f.LoopFrac *= u(0.6, 1.4)
	f.RecencyFrac *= u(0.85, 1.15)
	f.DecayRate *= u(0.6, 1.4)
	// Keep the component probabilities a valid mixture.
	if sum := f.OneHitFrac + f.LoopFrac + f.RecencyFrac; sum > 0.95 {
		scale := 0.95 / sum
		f.OneHitFrac *= scale
		f.LoopFrac *= scale
		f.RecencyFrac *= scale
	}
	return f
}

// Generate produces a deterministic trace with the given catalog size and
// request count. Different seeds give statistically independent traces of
// the same family, with mild per-seed parameter jitter mimicking the
// diversity inside real dataset collections.
func (f Family) Generate(seed int64, objects, requests int) *trace.Trace {
	if objects <= 0 || requests <= 0 {
		panic(fmt.Sprintf("workload: Generate needs positive sizes, got objects=%d requests=%d", objects, requests))
	}
	name := f.Name
	f = f.jittered(seed)
	f.Name = name
	rng := rand.New(rand.NewSource(seed))
	zipf := NewZipf(rng, objects, f.Alpha)

	reqs := make([]trace.Request, requests)

	// Component thresholds for a single uniform draw per request. A scan,
	// once started, occupies the next ScanLen requests, so the start
	// probability is ScanFrac/ScanLen to make ScanFrac the approximate
	// share of requests that belong to scans.
	scanLen := f.ScanLen
	if scanLen <= 0 {
		scanLen = 64
	}
	pOneHit := f.OneHitFrac
	pScan := pOneHit + f.ScanFrac/float64(scanLen)
	pLoop := pScan + f.LoopFrac
	pRecency := pLoop + f.RecencyFrac

	loopLen := f.LoopLen
	if loopLen <= 0 {
		loopLen = max(objects/2, 1) // a one-object catalog loops over one key
	}
	recencyMean := max(f.RecencyScale*float64(objects), 1)
	// Phase changes come every PhaseEvery requests, at nextPhase; -1 is
	// never.
	nextPhase := -1
	if f.PhaseEvery > 0 {
		nextPhase = f.PhaseEvery
	}
	phaseShift := uint64(f.PhaseShiftFrac * float64(objects))

	// history is a ring of the last histLen emitted keys; the next one goes
	// to histPos.
	history := make([]uint64, min(4*objects, 1<<16))
	histPos, histLen := 0, 0

	var (
		catalogBase   float64 // drift position
		phaseOffset   uint64
		oneHitCounter uint64
		scanCursor    uint64
		scanRemaining int
		loopPos       int
	)
	for i := range reqs {
		if i == nextPhase {
			phaseOffset += phaseShift
			nextPhase += f.PhaseEvery
		}
		catalogBase += f.DecayRate

		var key uint64
		if scanRemaining > 0 {
			scanRemaining--
			scanCursor++
			key = makeKey(tagScan, scanCursor)
		} else {
			u := rng.Float64()
			switch {
			case u < pOneHit:
				oneHitCounter++
				key = makeKey(tagOneHit, oneHitCounter)
			case u < pScan:
				scanRemaining = scanLen - 1
				scanCursor++
				key = makeKey(tagScan, scanCursor)
			case u < pLoop:
				if loopPos++; loopPos == loopLen {
					loopPos = 0
				}
				key = makeKey(tagLoop, uint64(loopPos))
			case u < pRecency && histLen > 0:
				// d steps back from the newest key in the ring.
				d := min(int(rng.ExpFloat64()*recencyMean), histLen-1)
				idx := histPos - 1 - d
				if idx < 0 {
					idx += len(history)
				}
				key = history[idx]
			default:
				// rank 0 is the most popular; map it to the newest
				// arrival so popularity decays smoothly as the catalog
				// drifts.
				rank := zipf.Next()
				key = makeKey(tagCatalog, uint64(int(catalogBase)+objects-1-rank)+phaseOffset)
			}
		}

		reqs[i] = trace.Request{Key: key, Size: 1, Time: int64(i)}
		history[histPos] = key
		if histPos++; histPos == len(history) {
			histPos = 0
		}
		if histLen < len(history) {
			histLen++
		}
	}
	return &trace.Trace{Name: fmt.Sprintf("%s-%d", f.Name, seed), Class: f.Class, Requests: reqs}
}

// GenerateDefault produces a trace at the family's canonical scale divided
// by scaleDown (minimum scale enforced).
func (f Family) GenerateDefault(seed int64, scaleDown int) *trace.Trace {
	if scaleDown < 1 {
		scaleDown = 1
	}
	obj := f.DefaultObjects / scaleDown
	if obj < 1000 {
		obj = 1000
	}
	req := f.DefaultRequests / scaleDown
	if req < 10000 {
		req = 10000
	}
	return f.Generate(seed, obj, req)
}

// The ten Table-1 dataset families. Parameters are calibrated so each
// family reproduces the qualitative behaviour the paper reports for the
// corresponding dataset (see EXPERIMENTS.md).

// MSRLike models the MSR Cambridge block traces: skewed reuse with heavy
// scan/loop pollution from enterprise storage workloads.
func MSRLike() Family {
	return Family{
		Name: "msr", Class: trace.Block,
		Alpha: 0.8, ScanFrac: 0.12, ScanLen: 200, LoopFrac: 0.10, LoopLen: 0,
		OneHitFrac: 0.05, RecencyFrac: 0.30, RecencyScale: 0.0003,
		PhaseEvery: 200000, PhaseShiftFrac: 0.25,
		DefaultObjects: 60000, DefaultRequests: 1200000, TableTraces: 13,
	}
}

// FIULike models the FIU block traces: small working sets with high reuse.
func FIULike() Family {
	return Family{
		Name: "fiu", Class: trace.Block,
		Alpha: 1.1, ScanFrac: 0.05, ScanLen: 100, LoopFrac: 0.05, LoopLen: 0,
		OneHitFrac: 0.10, RecencyFrac: 0.30, RecencyScale: 0.0003,
		DefaultObjects: 30000, DefaultRequests: 1500000, TableTraces: 9,
	}
}

// CloudPhysicsLike models the CloudPhysics VM block traces: mixed skew with
// phase changes from VM lifecycles.
func CloudPhysicsLike() Family {
	return Family{
		Name: "cloudphysics", Class: trace.Block,
		Alpha: 0.9, ScanFrac: 0.10, ScanLen: 150, LoopFrac: 0.05, LoopLen: 0,
		OneHitFrac: 0.08, RecencyFrac: 0.25, RecencyScale: 0.0003,
		PhaseEvery: 150000, PhaseShiftFrac: 0.25,
		DefaultObjects: 80000, DefaultRequests: 1000000, TableTraces: 106,
	}
}

// TencentCBSLike models the Tencent cloud block storage traces: weak
// locality, many cold objects, heavy scans.
func TencentCBSLike() Family {
	return Family{
		Name: "tencentcbs", Class: trace.Block,
		Alpha: 0.7, ScanFrac: 0.20, ScanLen: 300, OneHitFrac: 0.20,
		RecencyFrac: 0.20, RecencyScale: 0.0003,
		DefaultObjects: 100000, DefaultRequests: 800000, TableTraces: 4030,
	}
}

// AlibabaLike models the Alibaba block traces: skewed reuse with strong
// periodic working-set shifts.
func AlibabaLike() Family {
	return Family{
		Name: "alibaba", Class: trace.Block,
		Alpha: 1.0, ScanFrac: 0.05, ScanLen: 250, LoopFrac: 0.08, LoopLen: 0,
		OneHitFrac: 0.06, RecencyFrac: 0.30, RecencyScale: 0.0003,
		PhaseEvery: 100000, PhaseShiftFrac: 0.25,
		DefaultObjects: 70000, DefaultRequests: 1000000, TableTraces: 652,
	}
}

// MajorCDNLike models the anonymous major-CDN object traces: strong
// popularity decay and many one-hit wonders (dynamic and short-lived
// content, versioned object names — §4).
func MajorCDNLike() Family {
	return Family{
		Name: "majorcdn", Class: trace.Web,
		Alpha: 0.85, DecayRate: 0.05, OneHitFrac: 0.25,
		DefaultObjects: 80000, DefaultRequests: 1000000, TableTraces: 219,
	}
}

// TencentPhotoLike models the Tencent Photo object traces: decaying
// popularity with moderate one-hit-wonder rates.
func TencentPhotoLike() Family {
	return Family{
		Name: "tencentphoto", Class: trace.Web,
		Alpha: 0.9, DecayRate: 0.03, OneHitFrac: 0.15,
		DefaultObjects: 90000, DefaultRequests: 1200000, TableTraces: 2,
	}
}

// WikiCDNLike models the Wikimedia CDN traces: high skew, mild decay, a
// stable hot set.
func WikiCDNLike() Family {
	return Family{
		Name: "wikicdn", Class: trace.Web,
		Alpha: 1.0, DecayRate: 0.01, OneHitFrac: 0.10,
		DefaultObjects: 60000, DefaultRequests: 1500000, TableTraces: 3,
	}
}

// TwitterLike models the Twitter in-memory KV traces: high skew, high
// request rates, mild decay and some temporal locality.
func TwitterLike() Family {
	return Family{
		Name: "twitter", Class: trace.Web,
		Alpha: 1.0, DecayRate: 0.01, OneHitFrac: 0.03,
		RecencyFrac: 0.35, RecencyScale: 0.0002,
		DefaultObjects: 100000, DefaultRequests: 2000000, TableTraces: 54,
	}
}

// SocialLike models the first-layer social-network KV traces: nearly every
// object is requested more than once (correlated bursts saturate a single
// reference bit) — the pattern under which the paper finds LRU beats
// FIFO-Reinsertion but not 2-bit CLOCK (§3, footnote 3).
func SocialLike() Family {
	return Family{
		Name: "social", Class: trace.Web,
		Alpha: 0.8, OneHitFrac: 0.05,
		RecencyFrac: 0.70, RecencyScale: 0.0001,
		DefaultObjects: 80000, DefaultRequests: 2000000, TableTraces: 219,
	}
}

// Families returns the ten Table-1 dataset families in the paper's order.
func Families() []Family {
	return []Family{
		MSRLike(), FIULike(), CloudPhysicsLike(), MajorCDNLike(), TencentPhotoLike(),
		WikiCDNLike(), TencentCBSLike(), AlibabaLike(), TwitterLike(), SocialLike(),
	}
}

// FamilyByName looks a family up by its Name.
func FamilyByName(name string) (Family, bool) {
	for _, f := range Families() {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// SmallCacheFrac and LargeCacheFrac are the paper's two evaluated cache
// sizes: 0.1% and 10% of the number of unique objects in the trace (§3).
const (
	SmallCacheFrac = 0.001
	LargeCacheFrac = 0.10
)

// CacheSize returns the cache capacity (in objects) for a trace with the
// given unique-object count at fraction frac, never below 8 objects so tiny
// test traces stay meaningful.
func CacheSize(uniqueObjects int, frac float64) int {
	c := int(math.Round(float64(uniqueObjects) * frac))
	if c < 8 {
		c = 8
	}
	return c
}
