package evict

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/slab"
)

// ref is QD-LP-FIFO as the paper describes it (§4), written with maps and
// slices and without this package's index, as an oracle for the Engine:
//
//   - A first touch enters a probationary FIFO that holds a tenth of the
//     budget. One costing more than the whole of probation enters the main
//     region instead, and one costing more than the main region is refused.
//   - When probation overflows, its oldest object moves to the main region
//     if it was requested since insertion (lazy promotion), and is otherwise
//     evicted, its key remembered in a ghost FIFO (quick demotion).
//   - A miss on a remembered key is a quick-demotion mistake: the key
//     leaves the ghost and the object enters the main region.
//   - The main region is a 2-bit CLOCK: its oldest object is evicted if its
//     counter is zero, and otherwise reinserted as the newest with the
//     counter decremented. A hit increments the counter up to 3.
//   - The ghost holds as many keys as the main region holds objects: its
//     whole budget under an entry budget; under a byte budget, where bytes
//     fix no count, as many as it holds right now, at least 16.
//
// A set of a resident key at a new size re-charges it, counts as a hit and
// evicts until both regions fit; an object larger than its region leaves.
type ref struct {
	bytes            bool
	probMax, mainMax int64
	probUsed         int64
	mainUsed         int64
	prob, main       []uint64 // oldest first
	ghost            []uint64 // oldest first
	objs             map[uint64]*refObj
	victims          []victim
}

type refObj struct {
	size   uint64
	freq   uint32
	inMain bool
}

// victim is one eviction as a Sink hears it.
type victim struct {
	key   uint64
	cause Cause
}

func newRef(budget int64, bytes bool) *ref {
	prob := budget / 10
	return &ref{bytes: bytes, probMax: prob, mainMax: budget - prob, objs: map[uint64]*refObj{}}
}

func (r *ref) cost(size uint64) int64 {
	if r.bytes {
		return int64(size)
	}
	return 1
}

// get serves a request: a hit counts, a miss admits the object.
func (r *ref) get(key, size uint64) bool {
	if o := r.objs[key]; o != nil {
		o.freq = min(o.freq+1, 3)
		return true
	}
	r.admit(key, size)
	return false
}

// set stores key at size: a resident key is re-charged, another admitted.
func (r *ref) set(key, size uint64) {
	o := r.objs[key]
	if o == nil {
		r.admit(key, size)
		return
	}
	used, budget := &r.probUsed, r.probMax
	if o.inMain {
		used, budget = &r.mainUsed, r.mainMax
	}
	*used += r.cost(size) - r.cost(o.size)
	o.size = size
	if r.cost(size) > budget {
		r.evict(key, TooLarge)
		return
	}
	o.freq = min(o.freq+1, 3)
	for r.mainUsed > r.mainMax {
		r.evictMain()
	}
	for r.probUsed > r.probMax {
		r.overflow()
	}
}

// del forgets a resident key; it is no eviction.
func (r *ref) del(key uint64) {
	if r.objs[key] != nil {
		r.drop(key)
	}
}

func (r *ref) admit(key, size uint64) {
	c := r.cost(size)
	i := slices.Index(r.ghost, key)
	if i >= 0 {
		r.ghost = slices.Delete(r.ghost, i, i+1)
	}
	if i >= 0 || c > r.probMax {
		if c <= r.mainMax {
			r.toMain(key, size)
		}
		return
	}
	for r.probUsed+c > r.probMax {
		r.overflow()
	}
	r.objs[key] = &refObj{size: size}
	r.prob = append(r.prob, key)
	r.probUsed += c
}

func (r *ref) toMain(key, size uint64) {
	c := r.cost(size)
	for r.mainUsed+c > r.mainMax {
		r.evictMain()
	}
	r.objs[key] = &refObj{size: size, inMain: true}
	r.main = append(r.main, key)
	r.mainUsed += c
}

func (r *ref) evictMain() {
	for {
		key := r.main[0]
		o := r.objs[key]
		if o.freq == 0 {
			r.evict(key, Sweep)
			return
		}
		o.freq--
		r.main = append(r.main[1:], key)
	}
}

func (r *ref) overflow() {
	key := r.prob[0]
	o := r.objs[key]
	if o.freq > 0 {
		if r.cost(o.size) > r.mainMax {
			r.evict(key, TooLarge)
			return
		}
		r.drop(key)
		r.toMain(key, o.size)
		return
	}
	r.evict(key, Demoted)
	limit := int(r.mainMax)
	if r.bytes {
		limit = max(len(r.main), 16)
	}
	if limit == 0 {
		return
	}
	for len(r.ghost) >= limit {
		r.ghost = r.ghost[1:]
	}
	r.ghost = append(r.ghost, key)
}

func (r *ref) evict(key uint64, c Cause) {
	r.victims = append(r.victims, victim{key, c})
	r.drop(key)
}

// drop takes resident key off its queue.
func (r *ref) drop(key uint64) {
	o := r.objs[key]
	delete(r.objs, key)
	q, used := &r.prob, &r.probUsed
	if o.inMain {
		q, used = &r.main, &r.mainUsed
	}
	*used -= r.cost(o.size)
	i := slices.Index(*q, key)
	*q = slices.Delete(*q, i, i+1)
}

// state renders the reference's queues, oldest first, as key/counter pairs.
func (r *ref) state() string {
	render := func(q []uint64) string {
		var b strings.Builder
		for _, k := range q {
			if o := r.objs[k]; o != nil {
				fmt.Fprintf(&b, " %d/%d", k, o.freq)
			} else {
				fmt.Fprintf(&b, " %d", k)
			}
		}
		return b.String()
	}
	return fmt.Sprintf("probation (%d):%s\nmain (%d):%s\nghost:%s", r.probUsed, render(r.prob), r.mainUsed, render(r.main), render(r.ghost))
}

// engineDriver runs an Engine the way its callers do: the hit path is the
// caller's counter increment, a miss or a set of an absent key is Admit.
type engineDriver struct {
	e       Engine[struct{}]
	victims []victim
}

func newEngineDriver(cfg Config) *engineDriver {
	d := &engineDriver{}
	d.e.Init(cfg, d)
	return d
}

func (d *engineDriver) Evicted(n int32, c Cause) {
	d.victims = append(d.victims, victim{d.e.X.Key(n), c})
}

func (d *engineDriver) Spared(int32, uint32) {}

// resident returns key's slot and whether it holds data.
func (d *engineDriver) resident(key uint64) (int32, bool) {
	n := d.e.X.Find(key)
	return n, n != 0 && d.e.X.Value(n).Where != InGhost
}

func (d *engineDriver) get(key, size uint64) bool {
	n, ok := d.resident(key)
	if ok {
		if v := d.e.X.Value(n); v.Freq < d.e.MaxFreq() {
			v.Freq++
		}
		return true
	}
	d.e.Admit(key, n, size)
	return false
}

func (d *engineDriver) set(key, size uint64) {
	if n, ok := d.resident(key); ok {
		d.e.Resize(n, size)
	} else {
		d.e.Admit(key, n, size)
	}
}

func (d *engineDriver) del(key uint64) {
	if n, ok := d.resident(key); ok {
		d.e.Remove(n)
	}
}

func (d *engineDriver) state() string {
	render := func(l *slab.List) string {
		var b strings.Builder
		for n := l.Back(); n != 0; n = d.e.X.Prev(n) {
			if v := d.e.X.Value(n); v.Where != InGhost {
				fmt.Fprintf(&b, " %d/%d", d.e.X.Key(n), v.Freq)
			} else {
				fmt.Fprintf(&b, " %d", d.e.X.Key(n))
			}
		}
		return b.String()
	}
	return fmt.Sprintf("probation (%d):%s\nmain (%d):%s\nghost:%s",
		d.e.Prob.Used, render(&d.e.Prob.List), d.e.Main.Used, render(&d.e.Main.List), render(&d.e.Ghost))
}

// op is one request of a replay.
type op struct {
	kind byte // 'g' get, 's' set, 'd' delete
	key  uint64
	size uint64
}

// qdlpConfig is the Engine configured as ref: the paper's sizing, a 2-bit
// main region, and MinRegion and MinCost at 1, where neither binds while
// the budget is at least 10 and, under a byte budget, no object costs less
// than 2 (see TestDeliberateDifferences).
func qdlpConfig(budget int64, bytes bool) Config {
	return Config{Rule: QDLP, Budget: budget, Bytes: bytes, Bits: 2, MinCost: 1,
		ProbationFrac: 0.1, GhostFactor: 1, MinRegion: 1}
}

// diverge replays ops through d and r and describes the first op after
// which their victims or their queues differ, or returns "".
func diverge(d *engineDriver, r *ref, ops []op) string {
	for i, o := range ops {
		hit, want := false, false
		switch o.kind {
		case 'g':
			hit, want = d.get(o.key, o.size), r.get(o.key, o.size)
		case 's':
			d.set(o.key, o.size)
			r.set(o.key, o.size)
		case 'd':
			d.del(o.key)
			r.del(o.key)
		}
		switch {
		case hit != want:
			return fmt.Sprintf("op %d %c %d (size %d): engine hit %v, reference %v", i, o.kind, o.key, o.size, hit, want)
		case !slices.Equal(d.victims, r.victims):
			return fmt.Sprintf("op %d %c %d (size %d): engine victims %v, reference %v", i, o.kind, o.key, o.size, d.victims, r.victims)
		case !d.same(r):
			return fmt.Sprintf("op %d %c %d (size %d):\nengine\n%s\nreference\n%s", i, o.kind, o.key, o.size, d.state(), r.state())
		}
	}
	return ""
}

// same reports whether d's regions hold what r's queues do: the same used
// cost, and the same keys in the same order with the same counters.
func (d *engineDriver) same(r *ref) bool {
	return d.e.Prob.Used == r.probUsed && d.e.Main.Used == r.mainUsed &&
		d.sameQueue(&d.e.Prob.List, r.prob, r) && d.sameQueue(&d.e.Main.List, r.main, r) &&
		d.sameQueue(&d.e.Ghost, r.ghost, r)
}

func (d *engineDriver) sameQueue(l *slab.List, q []uint64, r *ref) bool {
	if l.Len() != len(q) {
		return false
	}
	n := l.Back()
	for _, k := range q {
		if d.e.X.Key(n) != k {
			return false
		}
		if o := r.objs[k]; o != nil && o.freq != d.e.X.Value(n).Freq {
			return false
		}
		n = d.e.X.Prev(n)
	}
	return true
}

// decodeOps reads a fuzz input: a header of mode, budget and key space,
// then one op per three bytes. Entry budgets run from 10 to 127 objects,
// byte budgets from 100 to 5200 bytes. Seven sizes in eight stay within
// about a ninth of a byte budget, so about half cross half of probation
// and a few all of it; the eighth spread up to past the whole budget.
func decodeOps(data []byte) (budget int64, bytes bool, ops []op) {
	if len(data) < 3 {
		return 10, false, nil
	}
	bytes = data[0]&1 == 1
	budget = 10 + int64(data[1])%118
	if bytes {
		budget = 100 + int64(data[1])*20
	}
	keys := 4 + uint64(data[2])
	for data = data[3:]; len(data) >= 3; data = data[3:] {
		o := op{kind: 'g', key: uint64(data[1]) % keys}
		switch data[0] % 8 {
		case 5, 6:
			o.kind = 's'
		case 7:
			o.kind = 'd'
		}
		s := uint64(data[2])
		if s < 224 {
			o.size = 2 + s*uint64(budget)/2000
		} else {
			o.size = 2 + (s-224)*uint64(budget)/25
		}
		ops = append(ops, o)
	}
	return budget, bytes, ops
}

// FuzzEngineMatchesReference replays a decoded op sequence through the
// Engine and through ref, and fails at the first op after which the two
// disagree on a hit, on the victims so far (with their causes) or on the
// order and counters of probation, the main region and the ghost.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 20, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 1, 0})
	f.Add([]byte{1, 0, 20, 0, 1, 100, 0, 2, 230, 5, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		budget, bytes, ops := decodeOps(data)
		if msg := diverge(newEngineDriver(qdlpConfig(budget, bytes)), newRef(budget, bytes), ops); msg != "" {
			t.Fatalf("%d-unit %s budget: %s", budget, map[bool]string{false: "entry", true: "byte"}[bytes], msg)
		}
	})
}

// The Engine departs from ref on purpose in two places, each pinned here
// by the first op where the two part.
func TestDeliberateDifferences(t *testing.T) {
	gets := func(keys int, size uint64) []op {
		ops := make([]op, keys)
		for i := range ops {
			ops[i] = op{'g', uint64(i + 1), size}
		}
		return ops
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		ops    []op
		prefix string // how the divergence report starts
	}{
		{
			// MinRegion's floor: in a cache of 5 objects a tenth is 0, and
			// the textbook sends every first touch to the main region; the
			// Engine keeps a probation of MinRegion (1).
			name:   "MinRegion floor",
			cfg:    qdlpConfig(5, false),
			ops:    gets(1, 1),
			prefix: "op 0 g 1 (size 1):\nengine\nprobation (1): 1/0\n",
		},
		{
			// The index's slot bound: a byte budget of 1000 at a MinCost of
			// 100 gives the index 10 + 16 slots, so 2-byte objects run out
			// of slots long before probation's 100 bytes fill, and the
			// Engine demotes the oldest to free one (then forgets a ghost
			// for the next).
			name: "slot bound",
			cfg: func() Config {
				cfg := qdlpConfig(1000, true)
				cfg.MinCost = 100
				return cfg
			}(),
			ops:    gets(27, 2),
			prefix: "op 26 g 27 (size 2): engine victims [{1 2}], reference []",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msg := diverge(newEngineDriver(tc.cfg), newRef(tc.cfg.Budget, tc.cfg.Bytes), tc.ops)
			if !strings.HasPrefix(msg, tc.prefix) {
				t.Fatalf("divergence:\n%s\nwant it to start\n%s", msg, tc.prefix)
			}
		})
	}
}
