// Package evict holds each eviction decision of the paper's FIFO family
// once, over internal/slab: the cost-unit region budget, LRU's tail, the
// k-bit CLOCK sweep (k = 0 is FIFO), SIEVE's retained hand, and QD-LP-FIFO's
// probation overflow (promote or demote to the ghost), the ghost's bound
// and ghost readmission. The simulator's fifo, clock, lru, sieve, qd and
// qdlp policies are core.Policy adapters over an Engine; internal/concurrent
// runs one Engine per shard under the shard's exclusive lock.
//
// The callers keep what decides nothing. The hit path: a plain counter
// increment in the simulator, an atomic one under a shared lock in the
// server, and LRU's relink to the front. The slot payload: nothing in the
// simulator; the object, its epoch and its timer in the server. And what an
// eviction means: the Engine tells a Sink of each victim and each spared
// object while the slot still holds its key and payload, and the caller
// maps them to its own events. Every list's front is its newest slot.
//
// One decision differs between the layers, Config.GhostLarge: what QDLP
// does with a first touch too large for probation under a byte budget.
package evict

import (
	"fmt"

	"repro/internal/slab"
)

// Rule names the victim rule of an Engine's main region.
type Rule uint8

const (
	LRU   Rule = iota // the least recently used; the caller's hit relinks to the front
	CLOCK             // the oldest, reinserted with its counter decremented while positive
	SIEVE             // a hand that keeps its place sweeps toward the newest, clearing visited bits
	QDLP              // a probationary FIFO and a ghost in front of a CLOCK main region
)

// Where a slot is.
const (
	InMain uint8 = iota
	InProbation
	InGhost
)

// Slot is what an Engine's index holds per key. Size is the caller's word
// for the object, what a byte budget charges for it (an entry budget
// charges 1), zero for a ghost. Freq is the reference counter (CLOCK's
// count, SIEVE's visited bit, probation's "requested since insertion"): a
// caller's hit increments it up to MaxFreq; the Engine reads and resets it.
type Slot[P any] struct {
	Size  uint64
	Freq  uint32
	Where uint8
	P     P // the caller's payload
}

// Region is one queue with its own budget in cost units.
type Region struct {
	List slab.List // front = newest
	Max  int64
	Used int64
}

// Cause says why a slot leaves.
type Cause uint8

const (
	Capacity Cause = iota // LRU's least recently used
	Sweep                 // CLOCK's or SIEVE's victim, QDLP's main-region victim
	Demoted               // QDLP: left probation unrequested; the slot stays as a ghost
	TooLarge              // larger than its region once resized or promoted
)

// A Sink hears of every decision while the slot still holds its key, Size
// and payload: Evicted when slot leaves for c (under Demoted it stays on as
// a ghost; either way the caller releases its payload), Spared when the
// sweep keeps it on counter freq (a CLOCK reinsertion, a SIEVE visited bit
// spent, a promotion out of probation).
type Sink interface {
	Evicted(slot int32, c Cause)
	Spared(slot int32, freq uint32)
}

// An Outer is a QDLP main cache outside the Engine's index (Quick Demotion
// in front of ARC, LIRS, …). A Sink that is also an Outer is handed what
// the Engine would place in its CLOCK region (promoted: from probation, so
// it never left the cache), and MainLen bounds the ghost under a byte
// budget.
type Outer interface {
	AdmitMain(key, size uint64, promoted bool)
	MainLen() int
}

// Config sizes an Engine.
type Config struct {
	Rule   Rule
	Budget int64 // cost units: objects, or bytes when Bytes
	Bytes  bool  // an object costs its Size rather than 1
	Bits   int   // counter width: CLOCK's and QDLP's main, 1 for SIEVE
	// MinCost is the least an object can cost: the index holds at most
	// Budget/MinCost residents plus the ghost's bound, and evicts for a
	// slot when it is full (ghosts first).
	MinCost int64

	// QDLP only. ProbationFrac is probation's share of Budget, no less
	// than MinRegion unless that leaves the main region less; GhostFactor
	// sizes the ghost in main-region entries under an entry budget.
	ProbationFrac float64
	GhostFactor   float64
	MinRegion     int64
	// GhostLarge is what QDLP does, under a byte budget, with a first
	// touch too large for probation — the one decision the layers make
	// differently:
	//   - false, the simulator: an object larger than all of probation
	//     goes straight to the main region (refused if too large for that
	//     too) rather than flushing probation for one object;
	//     testdata/golden_sized.txt in internal/policy/all pins it.
	//   - true, the server: an object larger than half of probation is
	//     ghosted without ever holding bytes, so that one large one-hit
	//     object cannot flush many small hot ones, and a second touch
	//     earns it the main region; the benchmark's lib-churn and
	//     served-pipeline hit ratios pin it.
	// Under an entry budget no object is too large while probation is not
	// empty.
	GhostLarge bool
}

// Engine is one cache's eviction state. Not safe for concurrent use.
type Engine[P any] struct {
	X     *slab.Index[Slot[P]]
	Main  Region
	Prob  Region    // QDLP: probation
	Ghost slab.List // QDLP: keys remembered without data

	hand     int32 // SIEVE: where the next sweep starts; 0 = from the oldest
	rule     Rule
	bytes    bool
	toGhost  bool // QDLP: GhostLarge
	outer    bool // QDLP: the sink is an Outer, which holds the main cache
	maxFreq  uint32
	slots    int   // the index's bound
	ghostMin int   // QDLP: the ghost's bound, its floor under a byte budget
	admitMax int64 // QDLP: a first touch costing more is too large for probation
	sink     Sink
}

// Init sizes e for cfg, reporting to sink.
func (e *Engine[P]) Init(cfg Config, sink Sink) {
	*e = Engine[P]{rule: cfg.Rule, bytes: cfg.Bytes, maxFreq: uint32(1)<<cfg.Bits - 1, sink: sink}
	e.Main.Max = cfg.Budget
	ghost := int64(0)
	if cfg.Rule == QDLP {
		if f := cfg.ProbationFrac; f <= 0 || f >= 1 {
			panic(fmt.Sprintf("evict: ProbationFrac must be in (0,1), got %v", f))
		}
		_, e.outer = sink.(Outer)
		e.Prob.Max = max(min(max(int64(float64(cfg.Budget)*cfg.ProbationFrac), cfg.MinRegion), cfg.Budget-cfg.MinRegion), 0)
		e.Main.Max = cfg.Budget - e.Prob.Max
		e.admitMax = e.Prob.Max
		e.ghostMin = max(int(float64(e.Main.Max)*cfg.GhostFactor), 0)
		ghost = int64(e.ghostMin)
		if cfg.Bytes {
			e.ghostMin = 16
			ghost = max(e.Main.Max/cfg.MinCost, 16)
			if e.toGhost = cfg.GhostLarge; e.toGhost {
				e.admitMax = e.Prob.Max / 2
			}
		}
	}
	e.slots = int(min(cfg.Budget/cfg.MinCost+ghost, 1<<30-1))
	e.X = slab.New[Slot[P]](e.slots)
}

// MaxFreq is where a hit's counter increment saturates.
func (e *Engine[P]) MaxFreq() uint32 { return e.maxFreq }

// Slots is the most keys, ghosts included, the index holds.
func (e *Engine[P]) Slots() int { return e.slots }

// Len returns the number of resident objects.
func (e *Engine[P]) Len() int { return e.Main.List.Len() + e.Prob.List.Len() }

func (e *Engine[P]) cost(size uint64) int64 {
	if e.bytes {
		return int64(size)
	}
	return 1
}

func (e *Engine[P]) region(v *Slot[P]) *Region {
	if v.Where == InProbation {
		return &e.Prob
	}
	return &e.Main
}

// Admit is the miss path: it places key at size, evicting by the rule until
// the object fits. ghost is the key's slot when the key is a QDLP ghost (a
// quick-demotion mistake: readmitted to the main region), else 0. It
// returns the key's slot, with a zero payload, or 0 when the index holds
// nothing for the key: the object is too large for the cache (a ghost is
// then forgotten), or an Outer took it. Under GhostLarge the slot may be a
// ghost.
func (e *Engine[P]) Admit(key uint64, ghost int32, size uint64) int32 {
	c := e.cost(size)
	if e.rule == QDLP {
		return e.admitQDLP(key, ghost, size, c)
	}
	if c > e.Main.Max {
		return 0
	}
	for e.Main.Used+c > e.Main.Max {
		e.evictMain()
	}
	e.slotRoom()
	return e.place(e.X.Insert(key), InMain, size)
}

func (e *Engine[P]) admitQDLP(key uint64, ghost int32, size uint64, c int64) int32 {
	switch {
	case ghost != 0:
		if c > e.Main.Max {
			e.X.Remove(&e.Ghost, ghost)
			return 0
		}
		return e.toMain(key, ghost, &e.Ghost, size, false)
	case c > e.admitMax && e.toGhost:
		e.ghostRoom(e.GhostLimit())
		e.slotRoom()
		n := e.X.Insert(key)
		e.X.Value(n).Where = InGhost
		e.X.PushFront(&e.Ghost, n)
		return n
	case c > e.admitMax:
		if c > e.Main.Max {
			return 0
		}
		return e.toMain(key, 0, nil, size, false)
	}
	for e.Prob.Used+c > e.Prob.Max {
		e.overflow()
	}
	e.slotRoom()
	return e.place(e.X.Insert(key), InProbation, size)
}

// Resize re-charges resident slot n at size after the caller replaced its
// object, counts the write as a hit, and evicts until the regions fit; an
// object now larger than its region is evicted itself (TooLarge).
func (e *Engine[P]) Resize(n int32, size uint64) {
	v := e.X.Value(n)
	r := e.region(v)
	c := e.cost(size)
	r.Used += c - e.cost(v.Size)
	v.Size = size
	if c > r.Max {
		e.evict(n, TooLarge)
		return
	}
	if e.rule == LRU {
		e.X.MoveToFront(&e.Main.List, n)
	} else if v.Freq < e.maxFreq {
		v.Freq++
	}
	for e.Main.Used > e.Main.Max {
		e.evictMain()
	}
	for e.Prob.Used > e.Prob.Max {
		e.overflow()
	}
}

// Remove forgets resident slot n, whose payload the caller has released:
// a delete, an expiry, the end of every eviction. Removing the slot under
// SIEVE's hand first moves the hand one step toward the newest, so a sweep
// in progress is not disturbed.
func (e *Engine[P]) Remove(n int32) {
	if e.hand == n {
		e.hand = e.X.Prev(n)
	}
	v := e.X.Value(n)
	r := e.region(v)
	r.Used -= e.cost(v.Size)
	e.X.Remove(&r.List, n)
}

func (e *Engine[P]) evict(n int32, c Cause) {
	e.sink.Evicted(n, c)
	e.Remove(n)
}

// place makes slot n, on no list, the newest of the list where names.
func (e *Engine[P]) place(n int32, where uint8, size uint64) int32 {
	v := e.X.Value(n)
	v.Size, v.Freq, v.Where = size, 0, where
	r := e.region(v)
	e.X.PushFront(&r.List, n)
	r.Used += e.cost(size)
	return n
}

// evictMain evicts one object of the non-empty main region by the rule.
func (e *Engine[P]) evictMain() {
	switch e.rule {
	case LRU:
		e.evict(e.Main.List.Back(), Capacity)
	case SIEVE:
		n := e.hand
		if n == 0 {
			n = e.Main.List.Back()
		}
		for v := e.X.Value(n); v.Freq > 0; v = e.X.Value(n) {
			v.Freq = 0
			e.sink.Spared(n, 1)
			if n = e.X.Prev(n); n == 0 {
				n = e.Main.List.Back() // wrap to the oldest
			}
		}
		e.hand = e.X.Prev(n) // 0 at the newest: the next sweep wraps
		e.evict(n, Sweep)
	default: // terminates: every reinsertion decrements a positive counter
		for {
			n := e.Main.List.Back()
			v := e.X.Value(n)
			if v.Freq == 0 {
				e.evict(n, Sweep)
				return
			}
			e.sink.Spared(n, v.Freq)
			v.Freq--
			e.X.MoveToFront(&e.Main.List, n)
		}
	}
}

// overflow takes the oldest object off probation: requested since its
// insertion, it is promoted to the main region (lazy promotion, evicting
// there to make room); otherwise it is demoted to the ghost (quick
// demotion, which is the eviction), keeping its slot.
func (e *Engine[P]) overflow() {
	n := e.Prob.List.Back()
	v := e.X.Value(n)
	c := e.cost(v.Size)
	if v.Freq > 0 {
		e.sink.Spared(n, v.Freq)
		if c > e.Main.Max {
			e.evict(n, TooLarge)
			return
		}
		e.Prob.Used -= c
		e.toMain(e.X.Key(n), n, &e.Prob.List, v.Size, true)
		return
	}
	e.sink.Evicted(n, Demoted)
	e.Prob.Used -= c
	limit := e.GhostLimit()
	if limit == 0 {
		e.X.Remove(&e.Prob.List, n)
		return
	}
	e.ghostRoom(limit)
	e.X.Unlink(&e.Prob.List, n)
	v.Size, v.Where = 0, InGhost
	e.X.PushFront(&e.Ghost, n)
}

// toMain places key, whose slot n is on list from (0 and nil for a key the
// index does not hold), in the main region, or hands it to the Outer.
func (e *Engine[P]) toMain(key uint64, n int32, from *slab.List, size uint64, promoted bool) int32 {
	if e.outer {
		if n != 0 {
			e.X.Remove(from, n)
		}
		e.sink.(Outer).AdmitMain(key, size, promoted)
		return 0
	}
	if n != 0 {
		e.X.Unlink(from, n)
	} else {
		e.slotRoom()
	}
	for c := e.cost(size); e.Main.Used+c > e.Main.Max; {
		e.evictMain()
	}
	if n == 0 {
		n = e.X.Insert(key)
	}
	return e.place(n, InMain, size)
}

// GhostLimit is the number of keys the ghost may hold: the paper's fixed
// size (GhostFactor × the main region's entries) under an entry budget; as
// many as the main region holds objects right now, at least 16, under a
// byte budget, where bytes fix no entry count.
func (e *Engine[P]) GhostLimit() int {
	switch {
	case !e.bytes:
		return e.ghostMin
	case e.outer:
		return max(e.sink.(Outer).MainLen(), e.ghostMin)
	}
	return max(e.Main.List.Len(), e.ghostMin)
}

// ghostRoom forgets the oldest ghosts beyond limit. The ghost is an exact
// FIFO: a readmitted key leaves it at once, so a key demoted again is
// remembered for a full limit further demotions.
func (e *Engine[P]) ghostRoom(limit int) {
	for e.Ghost.Len() > 0 && e.Ghost.Len() >= limit {
		e.X.Remove(&e.Ghost, e.Ghost.Back())
	}
}

// slotRoom frees an index slot for an insertion: ghosts go first, then
// probation, then the main region.
func (e *Engine[P]) slotRoom() {
	for e.X.Len() >= e.slots {
		switch {
		case e.Ghost.Len() > 0:
			e.X.Remove(&e.Ghost, e.Ghost.Back())
		case e.Prob.List.Len() > 0:
			e.overflow()
		default:
			e.evictMain()
		}
	}
}
