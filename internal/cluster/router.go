package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/server"
	"repro/internal/sketch"
)

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Nodes are the initial backend endpoints (host:port). At least one is
	// required.
	Nodes []string
	// Dial configures the pooled per-node clients (Addr overridden per
	// node). Zero fields get router defaults tuned for fast failure: 1s
	// connect, 2s read/write — a dead node must cost milliseconds, not a
	// stalled soak.
	Dial server.DialConfig
	// Seed fixes ring placement (shared with any cluster.Client fronting
	// the same fleet).
	Seed int64
	// VirtualNodes is the ring's per-node point count (<=0 selects
	// DefaultVirtualNodes).
	VirtualNodes int
	// Replicas is how many ring-successor nodes serve a hot key (owner
	// included). <=0 means 2; 1 disables replication.
	Replicas int
	// HotThreshold is the count-min estimate at which a key turns hot.
	// <=0 means 8.
	HotThreshold int
	// HotKeyspace sizes the hot-key sketch. <=0 means 1<<16.
	HotKeyspace int
	// PoolSize bounds idle pooled connections per node. <=0 means 16.
	PoolSize int
	// Metrics, if set, receives the per-node route/replica/forward counter
	// families and the cluster gauges.
	Metrics *metrics.Registry
	// Events, if set, records hot-key replicate/demote lifecycle events
	// (EvHotReplicate/EvHotDemote), served on /debug/events like any other
	// cache event.
	Events *obs.Recorder
	// Logger receives topology and forwarding diagnostics.
	Logger *slog.Logger

	// ProbeInterval enables the health prober: every interval each node is
	// probed with a version round trip under ProbeTimeout, feeding a
	// phi-accrual failure detector that ejects unhealthy nodes from the
	// ring (their keys remap to successors) and re-admits them after a
	// success streak. 0 disables probing entirely — the router then relies
	// on per-operation breakers and forward-error semantics alone.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe's dial, write, and read. A browned-out
	// node that still accepts connections but answers slowly must fail its
	// probes, so keep this near the latency SLO, not the transport limit.
	// <=0 means 250ms.
	ProbeTimeout time.Duration
	// Detector tunes the failure detector (zero fields get overload
	// package defaults: eject after 3 failures or phi>8, readmit after 3
	// successes).
	Detector overload.DetectorConfig
	// Breaker tunes the per-node circuit breakers on the forwarding path
	// (zero fields get overload defaults: open after 5 consecutive
	// transport failures, 1s cooldown).
	Breaker overload.BreakerConfig
}

// nodeCounters is one node's live tally. Counters persist across a
// remove/rejoin of the same node name, so metric series stay monotonic.
type nodeCounters struct {
	routedGet, routedSet, routedDelete atomic.Int64
	forwardErrors                      atomic.Int64
	replicaReads, replicaWrites        atomic.Int64
}

// nodeHealth is one node's failure-detection state: its forwarding-path
// circuit breaker, its probe-fed phi-accrual detector, and the ejection
// bookkeeping. Like nodeCounters it persists across remove/rejoin of the
// same node name so metric series stay monotonic and registered closures
// stay valid.
type nodeHealth struct {
	breaker *overload.Breaker
	det     *overload.Detector
	// ejected is true while the failure detector has pulled the node's
	// points from the ring (the node record itself stays, so probes keep
	// running and recovery can re-admit it).
	ejected                 atomic.Bool
	ejections, readmissions atomic.Int64
	probeOK, probeFail      atomic.Int64
}

// routerNode is one live backend: its address and a bounded pool of
// self-healing clients. Store methods run on many connection goroutines, so
// forwarding clients are borrowed from the pool and returned after use.
type routerNode struct {
	addr   string
	dial   server.DialConfig
	pool   chan *server.Client
	closed atomic.Bool
	ctr    *nodeCounters
	hp     *nodeHealth
}

func (n *routerNode) get() (*server.Client, error) {
	select {
	case c := <-n.pool:
		return c, nil
	default:
		dc := n.dial
		dc.Addr = n.addr
		return server.DialWithConfig(dc)
	}
}

func (n *routerNode) put(c *server.Client) {
	if n.closed.Load() {
		c.Close()
		return
	}
	select {
	case n.pool <- c:
	default:
		c.Close()
	}
}

func (n *routerNode) close() {
	n.closed.Store(true)
	for {
		select {
		case c := <-n.pool:
			c.Close()
		default:
			return
		}
	}
}

// fail charges a forward failure against the node: the error counter
// always, the breaker only for transport errors (a protocol answer means
// the node is up, just unhelpful — tripping the breaker on it would eject
// healthy capacity).
func (n *routerNode) fail(err error) {
	n.ctr.forwardErrors.Add(1)
	if server.IsTransportErr(err) {
		n.hp.breaker.Failure()
	}
}

// ok records a successful forward, closing the breaker if it was probing.
func (n *routerNode) ok() {
	n.hp.breaker.Success()
}

// allow asks the node's breaker whether a forward may proceed. A denial is
// not a forward error: nothing was attempted, the cost is exactly the
// point.
func (n *routerNode) allow() bool {
	return n.hp.breaker.Allow()
}

// probeOnce is one health-check round trip: a fresh connection under the
// probe timeout and a version exchange. A dedicated dial (never the pool)
// keeps the probe honest — a pooled connection could be healthy while the
// node refuses new ones, and vice versa — and the tight deadline makes a
// slow node indistinguishable from a dead one, which is the operator
// contract: browned-out capacity leaves the ring too.
func (n *routerNode) probeOnce(timeout time.Duration) error {
	dc := n.dial
	dc.Addr = n.addr
	dc.ConnectTimeout = timeout
	dc.ReadTimeout = timeout
	dc.WriteTimeout = timeout
	dc.MaxRetries = 0
	dc.Budget = nil
	c, err := server.DialWithConfig(dc)
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.Version()
	return err
}

// Router is a cluster-aware server.Store: a cacheserver running in -route
// mode serves the normal protocol while every operation is forwarded to the
// consistent-hash owner among the backend nodes. Keys the count-min sketch
// classifies as hot are replicated to the owner's ring successors: reads
// round-robin across the replica set, writes fan to all of it.
//
// Failure semantics are a cache's, end to end: a backend that cannot be
// reached makes reads miss and writes drop (counted per node in
// cache_cluster_forward_errors_total), it never errors the front
// connection. Clients see reduced hit ratio while a node is down and
// recovery once topology is fixed — the contract the kill/rejoin e2e
// asserts.
type Router struct {
	cfg  RouterConfig
	ring *Ring
	hot  *sketch.HotKeys
	log  *slog.Logger

	mu       sync.RWMutex
	nodes    map[string]*routerNode
	counters map[string]*nodeCounters // persists across remove/rejoin
	health   map[string]*nodeHealth   // persists across remove/rejoin

	probeStop chan struct{}
	probeDone chan struct{}

	rr atomic.Uint64 // replica-read round-robin cursor

	hits, misses, sets, deletes atomic.Int64
	hotPromotions, hotDemotions atomic.Int64
	topologyAdds, topologyDrops atomic.Int64
	statsMu                     sync.Mutex
	statsAt                     time.Time
	statCache                   fleetStats

	mrcMu    sync.Mutex
	mrcAt    time.Time
	mrcCache FleetMRC
}

// fleetStats is the briefly-cached fleet-aggregate occupancy poll.
type fleetStats struct {
	items, bytes, capacity       int64
	usedBytes, maxBytes, expired int64
}

// NewRouter validates cfg and connects the ring. Backends are dialed
// lazily: a router can front a fleet that is still coming up.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: router needs at least one node")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.HotThreshold <= 0 {
		cfg.HotThreshold = 8
	}
	if cfg.HotKeyspace <= 0 {
		cfg.HotKeyspace = 1 << 16
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 16
	}
	if cfg.Dial.ConnectTimeout == 0 {
		cfg.Dial.ConnectTimeout = time.Second
	}
	if cfg.Dial.ReadTimeout == 0 {
		cfg.Dial.ReadTimeout = 2 * time.Second
	}
	if cfg.Dial.WriteTimeout == 0 {
		cfg.Dial.WriteTimeout = 2 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	ring, err := NewRing(cfg.Seed, cfg.VirtualNodes, cfg.Nodes...)
	if err != nil {
		return nil, err
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 250 * time.Millisecond
	}
	r := &Router{
		cfg:      cfg,
		ring:     ring,
		hot:      sketch.NewHotKeys(cfg.HotKeyspace, cfg.HotThreshold),
		log:      cfg.Logger,
		nodes:    make(map[string]*routerNode, len(cfg.Nodes)),
		counters: make(map[string]*nodeCounters, len(cfg.Nodes)),
		health:   make(map[string]*nodeHealth, len(cfg.Nodes)),
	}
	for _, addr := range cfg.Nodes {
		r.mu.Lock()
		r.addLocked(addr)
		r.mu.Unlock()
	}
	if cfg.Metrics != nil {
		r.registerMetrics(cfg.Metrics)
	}
	if cfg.ProbeInterval > 0 {
		r.probeStop = make(chan struct{})
		r.probeDone = make(chan struct{})
		go r.probeLoop()
	}
	return r, nil
}

// Ring exposes the router's ring (tests, admin).
func (r *Router) Ring() *Ring { return r.ring }

// HotKeyCount reports the current hot-set size.
func (r *Router) HotKeyCount() int { return r.hot.Len() }

// addLocked creates the node record and its (possibly pre-existing)
// counters and health state. Caller holds r.mu and has verified absence.
// An explicit (re)add wipes the health slate: the operator vouched for the
// node, so it starts healthy, in the ring, with a closed breaker — the
// prober will re-eject it if the operator was wrong.
func (r *Router) addLocked(addr string) {
	ctr, ok := r.counters[addr]
	if !ok {
		ctr = &nodeCounters{}
		r.counters[addr] = ctr
	}
	hp, ok := r.health[addr]
	if !ok {
		hp = &nodeHealth{
			breaker: overload.NewBreaker(r.cfg.Breaker),
			det:     overload.NewDetector(r.cfg.Detector),
		}
		r.health[addr] = hp
		if reg := r.cfg.Metrics; reg != nil {
			registerNodeMetrics(reg, addr, ctr, hp)
		}
	} else {
		hp.det.Reset()
		hp.breaker.Success()
		hp.ejected.Store(false)
	}
	r.nodes[addr] = &routerNode{
		addr: addr,
		dial: r.cfg.Dial,
		pool: make(chan *server.Client, r.cfg.PoolSize),
		ctr:  ctr,
		hp:   hp,
	}
}

// AddNode joins a backend to the ring under load. The ring swap is atomic;
// in-flight operations complete against whichever snapshot they read.
func (r *Router) AddNode(addr string) error {
	r.mu.Lock()
	if _, ok := r.nodes[addr]; ok {
		r.mu.Unlock()
		return fmt.Errorf("cluster: node %q already routed", addr)
	}
	if err := r.ring.Add(addr); err != nil {
		r.mu.Unlock()
		return err
	}
	r.addLocked(addr)
	r.mu.Unlock()
	r.topologyAdds.Add(1)
	r.log.Info("cluster node added", "node", addr, "nodes", r.ring.Len())
	return nil
}

// RemoveNode drops a backend: its ring points disappear (only its ~K/n keys
// remap, to the surviving successors) and its pooled connections close.
func (r *Router) RemoveNode(addr string) error {
	r.mu.Lock()
	n, ok := r.nodes[addr]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("cluster: node %q not routed", addr)
	}
	// An ejected node's ring points are already gone; removing the record
	// is all that is left to do.
	if !n.hp.ejected.Load() {
		if err := r.ring.Remove(addr); err != nil {
			r.mu.Unlock()
			return err
		}
	}
	n.hp.ejected.Store(false)
	delete(r.nodes, addr)
	r.mu.Unlock()
	n.close()
	r.topologyDrops.Add(1)
	r.log.Info("cluster node removed", "node", addr, "nodes", r.ring.Len())
	return nil
}

// node resolves an address to its live record (nil if a concurrent
// RemoveNode won the race; callers treat that as a forward failure).
func (r *Router) node(addr string) *routerNode {
	r.mu.RLock()
	n := r.nodes[addr]
	r.mu.RUnlock()
	return n
}

var (
	errNodeGone    = errors.New("cluster: node left the ring mid-operation")
	errBreakerOpen = errors.New("cluster: node breaker open")
)

// fetch forwards one get to addr through its pool.
func (r *Router) fetch(addr string, key []byte) (value []byte, flags uint32, cas uint64, found bool, err error) {
	n := r.node(addr)
	if n == nil {
		return nil, 0, 0, false, errNodeGone
	}
	if !n.allow() {
		return nil, 0, 0, false, errBreakerOpen
	}
	c, err := n.get()
	if err != nil {
		n.fail(err)
		return nil, 0, 0, false, err
	}
	n.ctr.routedGet.Add(1)
	value, flags, cas, found, err = c.GetWith(key)
	if err != nil {
		n.fail(err)
		c.Close()
		return nil, 0, 0, false, err
	}
	n.ok()
	n.put(c)
	return value, flags, cas, found, nil
}

// send forwards one set to addr through its pool. expireAt is the absolute
// unix-seconds deadline (0 = never), forwarded on the wire as an absolute
// exptime — always above memcached's 30-day relative threshold, so the
// backend reads it back as absolute and every node agrees on the deadline
// regardless of clock-skew-free forwarding latency.
func (r *Router) send(addr string, key, value []byte, flags uint32, expireAt int64) error {
	n := r.node(addr)
	if n == nil {
		return errNodeGone
	}
	if !n.allow() {
		return errBreakerOpen
	}
	c, err := n.get()
	if err != nil {
		n.fail(err)
		return err
	}
	n.ctr.routedSet.Add(1)
	if err := c.SetExp(key, flags, expireAt, value); err != nil {
		n.fail(err)
		c.Close()
		return err
	}
	n.ok()
	n.put(c)
	return nil
}

// touch records one access in the hot-key sketch and drains any demotions
// aging produced (recording them as events so /debug/events shows the hot
// set breathing).
func (r *Router) touch(id uint64) (hot, promoted bool) {
	hot, promoted = r.hot.Touch(id)
	for _, k := range r.hot.Demoted() {
		r.hotDemotions.Add(1)
		r.cfg.Events.Record(obs.Event{Key: k, Kind: obs.EvHotDemote})
	}
	return hot, promoted
}

// readTarget picks the node a read of id goes to, plus the primary owner
// for fallback: hot keys round-robin across the replica set, everything
// else reads its owner.
func (r *Router) readTarget(id uint64, hot bool, scratch []string) (addr, primary string) {
	if hot && r.cfg.Replicas > 1 {
		owners := r.ring.LookupN(id, r.cfg.Replicas, scratch[:0])
		if len(owners) > 0 {
			return owners[r.rr.Add(1)%uint64(len(owners))], owners[0]
		}
	}
	p := r.ring.Lookup(id)
	return p, p
}

// replicate copies a freshly promoted hot key's value to every replica
// owner except src (best effort; failures are per-node counted). The wire
// get that produced the value does not carry its TTL, so the copy is
// re-read from src via gete, which does: replicas inherit the source's
// absolute expiry deadline instead of storing an immortal copy that would
// outlive the owner's and serve stale hits after the owner expires it. If
// the re-read fails the already-fetched value is copied without a TTL —
// the old, weaker behavior — and the next write refreshes the whole
// replica set with the client's deadline.
func (r *Router) replicate(key, value []byte, flags uint32, id uint64, src string) {
	expireAt := int64(0)
	if n := r.node(src); n != nil && n.allow() {
		if c, err := n.get(); err == nil {
			v, f, _, exp, found, err := c.GetExp(key)
			switch {
			case err != nil:
				n.fail(err)
				c.Close()
			case !found:
				// Vanished between the serving read and this one: there is
				// nothing current to copy.
				n.ok()
				n.put(c)
				return
			default:
				n.ok()
				n.put(c)
				value, flags, expireAt = v, f, exp
			}
		} else {
			n.fail(err)
		}
	}
	var ob [8]string
	owners := r.ring.LookupN(id, r.cfg.Replicas, ob[:0])
	for _, addr := range owners {
		if addr == src {
			continue
		}
		if err := r.send(addr, key, value, flags, expireAt); err == nil {
			if n := r.node(addr); n != nil {
				n.ctr.replicaWrites.Add(1)
			}
		}
	}
	r.hotPromotions.Add(1)
	r.cfg.Events.Record(obs.Event{Key: id, Kind: obs.EvHotReplicate})
	r.log.Debug("hot key replicated", "key", id, "replicas", len(owners)-1, "expire_at", expireAt)
}

// AppendHit implements the server's single-key hit path by forwarding to
// the owner (or, for hot keys, a round-robin replica with owner fallback)
// and appending the backend's header and value.
func (r *Router) AppendHit(dst, key []byte, id uint64, hdr concurrent.HitHeaderFunc) (out []byte, valueLen int, ok bool) {
	hot, promoted := r.touch(id)
	var ob [8]string
	addr, primary := r.readTarget(id, hot, ob[:])
	if addr == "" {
		r.misses.Add(1)
		return dst, 0, false
	}
	value, flags, cas, found, err := r.fetch(addr, key)
	if (err != nil || !found) && addr != primary {
		// Replica miss or failure: the owner is the source of truth. addr
		// tracks who actually served the value, so a later replicate
		// doesn't mistake the empty replica for the source.
		addr = primary
		value, flags, cas, found, err = r.fetch(primary, key)
	} else if addr != primary && found {
		if n := r.node(addr); n != nil {
			n.ctr.replicaReads.Add(1)
		}
	}
	if err != nil || !found {
		r.misses.Add(1)
		return dst, 0, false
	}
	if promoted {
		r.replicate(key, value, flags, id, addr)
	}
	r.hits.Add(1)
	out = hdr(dst, key, len(value), flags, cas)
	out = append(out, value...)
	return out, len(value), true
}

// GetMulti groups keys by target node, forwards each group as one
// pipelined multi-get on its own goroutine, and fans the results back into
// request order — the per-node fan-out/fan-in that keeps a 64-key batch at
// one round trip per node instead of one per key.
func (r *Router) GetMulti(dst []byte, keys [][]byte, ids []uint64, out []concurrent.MultiHit) []byte {
	type group struct {
		idxs []int
		vals []server.MultiValue
	}
	groups := make(map[string]*group)
	var ob [8]string
	for i, id := range ids {
		hot, _ := r.touch(id)
		addr, _ := r.readTarget(id, hot, ob[:])
		g := groups[addr]
		if g == nil {
			g = &group{}
			groups[addr] = g
		}
		g.idxs = append(g.idxs, i)
	}
	var wg sync.WaitGroup
	for addr, g := range groups {
		wg.Add(1)
		go func(addr string, g *group) {
			defer wg.Done()
			n := r.node(addr)
			if n == nil || addr == "" || !n.allow() {
				return
			}
			c, err := n.get()
			if err != nil {
				n.fail(err)
				return
			}
			batch := make([][]byte, len(g.idxs))
			for j, i := range g.idxs {
				batch[j] = keys[i]
			}
			n.ctr.routedGet.Add(int64(len(batch)))
			vals, err := c.GetMulti(batch)
			if err != nil {
				n.fail(err)
				c.Close()
				return
			}
			n.ok()
			n.put(c)
			g.vals = vals
		}(addr, g)
	}
	wg.Wait()
	for i := range out {
		out[i] = concurrent.MultiHit{}
	}
	for _, g := range groups {
		if g.vals == nil {
			continue // node failed: its keys stay misses
		}
		for j, i := range g.idxs {
			mv := g.vals[j]
			if !mv.Found {
				continue
			}
			start := len(dst)
			dst = append(dst, mv.Value...)
			out[i] = concurrent.MultiHit{
				Start: start, End: len(dst),
				Flags: mv.Flags, CAS: mv.CAS, Hit: true,
			}
		}
	}
	for i := range out {
		if out[i].Hit {
			r.hits.Add(1)
		} else {
			r.misses.Add(1)
		}
	}
	return dst
}

// SetDigest forwards a write to the owner; a hot key's write fans to its
// whole replica set so replicas never serve stale values longer than one
// write cycle. The returned cas is 0: the authoritative token lives on the
// backend and is re-served on gets.
func (r *Router) SetDigest(key, value []byte, flags uint32, id uint64, expireAt int64) uint64 {
	hot, _ := r.touch(id)
	r.sets.Add(1)
	var ob [8]string
	if hot && r.cfg.Replicas > 1 {
		owners := r.ring.LookupN(id, r.cfg.Replicas, ob[:0])
		for i, addr := range owners {
			if err := r.send(addr, key, value, flags, expireAt); err == nil && i > 0 {
				if n := r.node(addr); n != nil {
					n.ctr.replicaWrites.Add(1)
				}
			}
		}
		return 0
	}
	if addr := r.ring.Lookup(id); addr != "" {
		r.send(addr, key, value, flags, expireAt)
	}
	return 0
}

// deleteFan removes key from every node in its replica set (replicas may
// hold copies from a past hot episode; deleting everywhere is cheap and
// always correct). found reports whether any node had it.
func (r *Router) deleteFan(key []byte, id uint64) bool {
	var ob [8]string
	owners := r.ring.LookupN(id, r.cfg.Replicas, ob[:0])
	found := false
	for _, addr := range owners {
		n := r.node(addr)
		if n == nil || !n.allow() {
			continue
		}
		c, err := n.get()
		if err != nil {
			n.fail(err)
			continue
		}
		n.ctr.routedDelete.Add(1)
		ok, err := c.Delete(key)
		if err != nil {
			n.fail(err)
			c.Close()
			continue
		}
		n.ok()
		n.put(c)
		found = found || ok
	}
	return found
}

// DeleteDigest implements explicit deletes.
func (r *Router) DeleteDigest(key []byte, id uint64) bool {
	found := r.deleteFan(key, id)
	if found {
		r.deletes.Add(1)
	}
	return found
}

// ExpireDigest implements the already-expired store (set with negative
// exptime): the previous value must vanish everywhere.
func (r *Router) ExpireDigest(key []byte, id uint64) bool {
	return r.deleteFan(key, id)
}

// TouchDigest forwards a TTL refresh to every node in the key's replica
// set: replicas may hold copies from a hot episode, and a touch that only
// reached the owner would let a replica's copy expire out from under a
// still-live key. found reports whether any node had a live entry.
func (r *Router) TouchDigest(key []byte, id uint64, expireAt int64) bool {
	var ob [8]string
	owners := r.ring.LookupN(id, r.cfg.Replicas, ob[:0])
	found := false
	for _, addr := range owners {
		n := r.node(addr)
		if n == nil || !n.allow() {
			continue
		}
		c, err := n.get()
		if err != nil {
			n.fail(err)
			continue
		}
		ok, err := c.Touch(key, expireAt)
		if err != nil {
			n.fail(err)
			c.Close()
			continue
		}
		n.ok()
		n.put(c)
		found = found || ok
	}
	return found
}

// ExpireAtDigest forwards the expiry lookup to the key's owner via gete.
// The value rides along and is discarded — acceptable for the rare front
// gete against a router, where the subsequent AppendHit re-fetches it.
// A key it cannot find counts as a miss, since no AppendHit follows to
// count it; a found one is counted by the AppendHit that serves it.
func (r *Router) ExpireAtDigest(key []byte, id uint64) (int64, bool) {
	expireAt, found := r.expireAt(key, id)
	if !found {
		r.misses.Add(1)
	}
	return expireAt, found
}

func (r *Router) expireAt(key []byte, id uint64) (int64, bool) {
	addr := r.ring.Lookup(id)
	n := r.node(addr)
	if n == nil || !n.allow() {
		return 0, false
	}
	c, err := n.get()
	if err != nil {
		n.fail(err)
		return 0, false
	}
	_, _, _, expireAt, found, err := c.GetExp(key)
	if err != nil {
		n.fail(err)
		c.Close()
		return 0, false
	}
	n.ok()
	n.put(c)
	return expireAt, found
}

// Stats reports the router's own operation counters (hits and misses as
// served through the ring, not the backends' internal tallies) plus the
// fleet-aggregate byte accounting and proactive-expiry totals.
func (r *Router) Stats() concurrent.Snapshot {
	fs := r.aggregate()
	return concurrent.Snapshot{
		Hits:       r.hits.Load(),
		Misses:     r.misses.Load(),
		Sets:       r.sets.Load(),
		Deletes:    r.deletes.Load(),
		Expired:    fs.expired,
		Len:        int(fs.items),
		Capacity:   int(fs.capacity),
		UsedBytes:  fs.usedBytes,
		MaxBytes:   fs.maxBytes,
		ValueBytes: fs.bytes,
	}
}

// ShardStats reports none: the router has no local shards (per-node state
// lives on the /cluster page and the per-node metric families).
func (r *Router) ShardStats() []concurrent.Snapshot { return nil }

// aggregate sums occupancy across backends via their stats command, cached
// briefly so a scrape of several gauges costs one fleet poll.
func (r *Router) aggregate() fleetStats {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	if time.Since(r.statsAt) < 2*time.Second {
		return r.statCache
	}
	r.mu.RLock()
	nodes := make([]*routerNode, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.mu.RUnlock()
	var fs fleetStats
	for _, n := range nodes {
		if n.hp.ejected.Load() || !n.allow() {
			continue // don't let the occupancy poll hammer a dead node
		}
		c, err := n.get()
		if err != nil {
			n.ctr.forwardErrors.Add(1)
			continue
		}
		st, err := c.Stats()
		if err != nil {
			n.ctr.forwardErrors.Add(1)
			c.Close()
			continue
		}
		n.put(c)
		for _, f := range []struct {
			name string
			dst  *int64
		}{
			{"curr_items", &fs.items},
			{"curr_bytes", &fs.bytes},
			{"capacity_items", &fs.capacity},
			{"used_bytes", &fs.usedBytes},
			{"max_bytes", &fs.maxBytes},
			{"expired_proactive", &fs.expired},
		} {
			if v, err := server.StatInt(st, f.name); err == nil {
				*f.dst += v
			}
		}
	}
	r.statsAt = time.Now()
	r.statCache = fs
	return fs
}

// Name is the policy label the front server's metrics carry.
func (r *Router) Name() string { return "router" }

// probeLoop drives the failure detector: every ProbeInterval each current
// node is probed and the result fed to its detector, which decides
// ejection and readmission. One goroutine probes the whole fleet
// sequentially — probes are cheap (a version round trip under a tight
// deadline), and serializing them means eject/readmit decisions never
// race each other.
func (r *Router) probeLoop() {
	defer close(r.probeDone)
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.probeStop:
			return
		case <-t.C:
		}
		r.mu.RLock()
		nodes := make([]*routerNode, 0, len(r.nodes))
		for _, n := range r.nodes {
			nodes = append(nodes, n)
		}
		r.mu.RUnlock()
		for _, n := range nodes {
			r.probeNode(n)
		}
	}
}

// probeNode runs one probe and applies its verdict.
func (r *Router) probeNode(n *routerNode) {
	err := n.probeOnce(r.cfg.ProbeTimeout)
	now := time.Now()
	if err == nil {
		n.hp.probeOK.Add(1)
		// A node the prober can reach is a node the data path may try:
		// close the breaker rather than waiting out its cooldown.
		n.hp.breaker.Success()
		if n.hp.det.ObserveSuccess(now) {
			r.readmit(n)
		}
		return
	}
	n.hp.probeFail.Add(1)
	if n.hp.det.ObserveFailure(now) {
		r.eject(n)
	}
}

// eject pulls an unhealthy node's points from the ring. The node record
// stays — probes keep running against it so recovery is observed — and
// its ~K/n keys remap to ring successors, exactly as if an operator had
// removed it. The last ring node is never ejected: routing everything to
// a suspect node beats routing everything to nobody.
func (r *Router) eject(n *routerNode) {
	r.mu.Lock()
	if n.hp.ejected.Load() || r.nodes[n.addr] != n || r.ring.Len() <= 1 {
		r.mu.Unlock()
		return
	}
	if err := r.ring.Remove(n.addr); err != nil {
		r.mu.Unlock()
		return
	}
	n.hp.ejected.Store(true)
	r.mu.Unlock()
	n.hp.ejections.Add(1)
	r.topologyDrops.Add(1)
	r.log.Warn("cluster node ejected by failure detector",
		"node", n.addr, "phi", n.hp.det.Phi(time.Now()), "nodes", r.ring.Len())
}

// readmit restores a recovered node's ring points.
func (r *Router) readmit(n *routerNode) {
	r.mu.Lock()
	if !n.hp.ejected.Load() || r.nodes[n.addr] != n {
		r.mu.Unlock()
		return
	}
	if err := r.ring.Add(n.addr); err != nil {
		r.mu.Unlock()
		return
	}
	n.hp.ejected.Store(false)
	r.mu.Unlock()
	n.hp.readmissions.Add(1)
	r.topologyAdds.Add(1)
	r.log.Info("cluster node readmitted after recovery",
		"node", n.addr, "nodes", r.ring.Len())
}

// registerMetrics publishes the cluster gauges and counters that are not
// per-node (those register as nodes first appear).
func (r *Router) registerMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("cache_cluster_nodes", "Nodes currently in the ring.",
		func() float64 { return float64(r.ring.Len()) })
	reg.GaugeFunc("cache_cluster_hot_keys", "Keys currently classified hot.",
		func() float64 { return float64(r.hot.Len()) })
	reg.CounterFunc("cache_cluster_hot_promotions_total", "Keys promoted to hot and replicated.",
		r.hotPromotions.Load)
	reg.CounterFunc("cache_cluster_hot_demotions_total", "Hot keys demoted by sketch aging.",
		r.hotDemotions.Load)
	reg.CounterFunc("cache_cluster_topology_changes_total", "Nodes added to the ring.",
		r.topologyAdds.Load, "op", "add")
	reg.CounterFunc("cache_cluster_topology_changes_total", "Nodes removed from the ring.",
		r.topologyDrops.Load, "op", "remove")
}

// registerNodeMetrics publishes one node's counter and health series;
// called once per node name for the registry's lifetime (counters and
// health state survive rejoin).
func registerNodeMetrics(reg *metrics.Registry, addr string, ctr *nodeCounters, hp *nodeHealth) {
	reg.CounterFunc("cache_cluster_routed_total", "Operations forwarded, by node and op.",
		ctr.routedGet.Load, "node", addr, "op", "get")
	reg.CounterFunc("cache_cluster_routed_total", "Operations forwarded, by node and op.",
		ctr.routedSet.Load, "node", addr, "op", "set")
	reg.CounterFunc("cache_cluster_routed_total", "Operations forwarded, by node and op.",
		ctr.routedDelete.Load, "node", addr, "op", "delete")
	reg.CounterFunc("cache_cluster_forward_errors_total", "Forwards that failed (reads miss, writes drop).",
		ctr.forwardErrors.Load, "node", addr)
	reg.CounterFunc("cache_cluster_replica_reads_total", "Hot-key reads served by a non-owner replica.",
		ctr.replicaReads.Load, "node", addr)
	reg.CounterFunc("cache_cluster_replica_writes_total", "Hot-key writes fanned to a non-owner replica.",
		ctr.replicaWrites.Load, "node", addr)
	reg.GaugeFunc("cache_cluster_node_healthy", "1 while the failure detector considers the node healthy.",
		func() float64 {
			if hp.det.Healthy() {
				return 1
			}
			return 0
		}, "node", addr)
	reg.GaugeFunc("cache_cluster_node_phi", "Phi-accrual suspicion level (eject above the configured threshold).",
		func() float64 { return hp.det.Phi(time.Now()) }, "node", addr)
	reg.CounterFunc("cache_cluster_node_ejections_total", "Times the failure detector pulled the node from the ring.",
		hp.ejections.Load, "node", addr)
	reg.CounterFunc("cache_cluster_node_readmissions_total", "Times a recovered node was restored to the ring.",
		hp.readmissions.Load, "node", addr)
	reg.CounterFunc("cache_cluster_probes_total", "Health probes, by node and result.",
		hp.probeOK.Load, "node", addr, "result", "ok")
	reg.CounterFunc("cache_cluster_probes_total", "Health probes, by node and result.",
		hp.probeFail.Load, "node", addr, "result", "fail")
	reg.GaugeFunc("cache_breaker_state", "Forwarding breaker position (0 closed, 1 open, 2 half-open).",
		func() float64 { return float64(hp.breaker.State()) }, "node", addr)
	reg.CounterFunc("cache_breaker_opens_total", "Times the node's forwarding breaker opened.",
		hp.breaker.Opens, "node", addr)
}

// NodeSnapshot is one node's counter snapshot for the /cluster page.
type NodeSnapshot struct {
	Addr          string `json:"addr"`
	Live          bool   `json:"live"`
	RoutedGet     int64  `json:"routed_get"`
	RoutedSet     int64  `json:"routed_set"`
	RoutedDelete  int64  `json:"routed_delete"`
	ForwardErrors int64  `json:"forward_errors"`
	ReplicaReads  int64  `json:"replica_reads"`
	ReplicaWrites int64  `json:"replica_writes"`

	// Health plane: detector verdict, current ring membership (a node can
	// be Live — still administered — yet Ejected from the ring), suspicion
	// level, breaker position, and lifecycle counts.
	Healthy      bool    `json:"healthy"`
	Ejected      bool    `json:"ejected"`
	Phi          float64 `json:"phi"`
	Breaker      string  `json:"breaker"`
	Ejections    int64   `json:"ejections"`
	Readmissions int64   `json:"readmissions"`
}

// Snapshot captures the router's topology and counters. Nodes that were
// removed keep reporting their historical counters with Live=false.
func (r *Router) Snapshot() (nodes []NodeSnapshot, hotKeys int, promotions, demotions, adds, drops int64) {
	r.mu.RLock()
	names := make([]string, 0, len(r.counters))
	for addr := range r.counters {
		names = append(names, addr)
	}
	live := make(map[string]bool, len(r.nodes))
	for addr := range r.nodes {
		live[addr] = true
	}
	ctrs := make(map[string]*nodeCounters, len(r.counters))
	for addr, c := range r.counters {
		ctrs[addr] = c
	}
	hps := make(map[string]*nodeHealth, len(r.health))
	for addr, hp := range r.health {
		hps[addr] = hp
	}
	r.mu.RUnlock()
	sortStrings(names)
	now := time.Now()
	for _, addr := range names {
		c := ctrs[addr]
		ns := NodeSnapshot{
			Addr: addr, Live: live[addr],
			RoutedGet: c.routedGet.Load(), RoutedSet: c.routedSet.Load(),
			RoutedDelete: c.routedDelete.Load(), ForwardErrors: c.forwardErrors.Load(),
			ReplicaReads: c.replicaReads.Load(), ReplicaWrites: c.replicaWrites.Load(),
			Healthy: true, Breaker: overload.BreakerClosed.String(),
		}
		if hp := hps[addr]; hp != nil {
			ns.Healthy = hp.det.Healthy()
			ns.Ejected = hp.ejected.Load()
			ns.Phi = hp.det.Phi(now)
			ns.Breaker = hp.breaker.State().String()
			ns.Ejections = hp.ejections.Load()
			ns.Readmissions = hp.readmissions.Load()
		}
		nodes = append(nodes, ns)
	}
	return nodes, r.hot.Len(), r.hotPromotions.Load(), r.hotDemotions.Load(),
		r.topologyAdds.Load(), r.topologyDrops.Load()
}

// Close stops the prober and shuts down every node pool.
func (r *Router) Close() {
	if r.probeStop != nil {
		close(r.probeStop)
		<-r.probeDone
		r.probeStop = nil
	}
	r.mu.Lock()
	nodes := make([]*routerNode, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.nodes = make(map[string]*routerNode)
	r.mu.Unlock()
	for _, n := range nodes {
		n.close()
	}
}

// sortStrings is strconv-free sort.Strings (kept local so the import list
// stays honest about what the hot path uses).
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// The router is a drop-in store for the front server.
var _ server.Store = (*Router)(nil)
