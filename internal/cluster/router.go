package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
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
}

// hotKeyspace sizes the hot-key sketch. The failure detector and the
// forwarding breakers run on the overload package defaults: eject after 3
// failures or phi>8 and readmit after 3 successes; open after 5
// consecutive transport failures for a 1s cooldown.
const hotKeyspace = 1 << 16

// routerNode is one backend the router has ever routed to: its endpoint
// plus the failure-detection state. Records persist across a remove and
// rejoin of the same address, so metric series stay monotonic and the
// closures registered for them stay valid.
type routerNode struct {
	*endpoint
	// live is true while the node is administered: added and not since
	// removed.
	live atomic.Bool
	det  *overload.Detector
	// ejected is true while the failure detector has pulled the node's
	// points from the ring (the node stays live, so probes keep running
	// and recovery can re-admit it).
	ejected                 atomic.Bool
	ejections, readmissions atomic.Int64
	probeOK, probeFail      atomic.Int64
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

	mu    sync.RWMutex
	nodes map[string]*routerNode // every node ever added, by address

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
	bufferBytes                  int64
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
		cfg:   cfg,
		ring:  ring,
		hot:   sketch.NewHotKeys(hotKeyspace, cfg.HotThreshold),
		log:   cfg.Logger,
		nodes: make(map[string]*routerNode, len(cfg.Nodes)),
	}
	r.mu.Lock()
	for _, addr := range cfg.Nodes {
		r.addLocked(addr)
	}
	r.mu.Unlock()
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

// addLocked marks addr's record live, creating it (and registering its
// metric series) on first sight. Caller holds r.mu and has verified the
// node is not live. An explicit (re)add wipes the health slate: the
// operator vouched for the node, so it starts healthy, in the ring, with a
// closed breaker — the prober will re-eject it if the operator was wrong.
func (r *Router) addLocked(addr string) {
	n := r.nodes[addr]
	if n == nil {
		n = &routerNode{
			endpoint: newEndpoint(addr, r.cfg.Dial, overload.BreakerConfig{}),
			det:      overload.NewDetector(overload.DetectorConfig{}),
		}
		r.nodes[addr] = n
		if reg := r.cfg.Metrics; reg != nil {
			registerNodeMetrics(reg, n)
		}
	} else {
		n.det.Reset()
		n.brk.Success()
		n.ejected.Store(false)
		n.reopen()
	}
	n.live.Store(true)
}

// AddNode joins a backend to the ring under load. The ring swap is atomic;
// in-flight operations complete against whichever snapshot they read.
func (r *Router) AddNode(addr string) error {
	r.mu.Lock()
	if n := r.nodes[addr]; n != nil && n.live.Load() {
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
	n := r.nodes[addr]
	if n == nil || !n.live.Load() {
		r.mu.Unlock()
		return fmt.Errorf("cluster: node %q not routed", addr)
	}
	// An ejected node's ring points are already gone; retiring the record
	// is all that is left to do.
	if !n.ejected.Load() {
		if err := r.ring.Remove(addr); err != nil {
			r.mu.Unlock()
			return err
		}
	}
	n.ejected.Store(false)
	n.live.Store(false)
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
	if n == nil || !n.live.Load() {
		return nil
	}
	return n
}

// nodeList snapshots the node records in address order, every record ever
// added or only the live ones.
func (r *Router) nodeList(liveOnly bool) []*routerNode {
	r.mu.RLock()
	addrs := make([]string, 0, len(r.nodes))
	for addr, n := range r.nodes {
		if n.live.Load() || !liveOnly {
			addrs = append(addrs, addr)
		}
	}
	slices.Sort(addrs)
	nodes := make([]*routerNode, len(addrs))
	for i, addr := range addrs {
		nodes[i] = r.nodes[addr]
	}
	r.mu.RUnlock()
	return nodes
}

var errNodeGone = errors.New("cluster: node left the ring mid-operation")

// forward runs op through addr's endpoint, or fails with errNodeGone if
// the node is not live.
func (r *Router) forward(addr string, op func(*routerNode, *server.Client) error) error {
	n := r.node(addr)
	if n == nil {
		return errNodeGone
	}
	return n.do(func(c *server.Client) error { return op(n, c) })
}

// fetch forwards one get to addr.
func (r *Router) fetch(addr string, key []byte) (mv server.MultiValue, err error) {
	err = r.forward(addr, func(n *routerNode, c *server.Client) (err error) {
		n.ctr.routedGet.Add(1)
		mv.Value, mv.Flags, mv.CAS, mv.Found, err = c.GetWith(key)
		return err
	})
	return mv, err
}

// send forwards one set to addr, counting a replica write on success when
// replica is set. expireAt is the absolute unix-seconds deadline (0 =
// never), forwarded on the wire as an absolute exptime — always above
// memcached's 30-day relative threshold, so the backend reads it back as
// absolute and every node agrees on the deadline regardless of
// clock-skew-free forwarding latency.
func (r *Router) send(addr string, key, value []byte, flags uint32, expireAt int64, replica bool) {
	r.forward(addr, func(n *routerNode, c *server.Client) error {
		n.ctr.routedSet.Add(1)
		err := c.SetExp(key, flags, expireAt, value)
		if err == nil && replica {
			n.ctr.replicaWrites.Add(1)
		}
		return err
	})
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
	var cur server.MultiValue
	var exp, expireAt int64
	if r.forward(src, func(_ *routerNode, c *server.Client) (err error) {
		cur.Value, cur.Flags, _, exp, cur.Found, err = c.GetExp(key)
		return err
	}) == nil {
		if !cur.Found {
			// Vanished between the serving read and this one: there is
			// nothing current to copy.
			return
		}
		value, flags, expireAt = cur.Value, cur.Flags, exp
	}
	var ob [8]string
	owners := r.ring.LookupN(id, r.cfg.Replicas, ob[:0])
	for _, addr := range owners {
		if addr != src {
			r.send(addr, key, value, flags, expireAt, true)
		}
	}
	r.hotPromotions.Add(1)
	r.cfg.Events.Record(obs.Event{Key: id, Kind: obs.EvHotReplicate})
	r.log.Debug("hot key replicated", "key", id, "replicas", len(owners)-1, "expire_at", expireAt)
}

// settle applies the read rule to one key's answer from addr: a replica's
// miss or failure is re-read from the primary owner, the source of truth;
// a replica's hit counts as a replica read; and a key this read promoted
// is replicated from whichever node served it. ok reports a hit.
func (r *Router) settle(key []byte, id uint64, addr, primary string, promoted bool, mv server.MultiValue, err error) (_ server.MultiValue, ok bool) {
	if addr != primary {
		if err == nil && mv.Found {
			if n := r.node(addr); n != nil {
				n.ctr.replicaReads.Add(1)
			}
		} else {
			// addr tracks who actually served the value, so replicate
			// doesn't mistake the empty replica for the source.
			addr = primary
			mv, err = r.fetch(primary, key)
		}
	}
	if err != nil || !mv.Found {
		return mv, false
	}
	if promoted {
		r.replicate(key, mv.Value, mv.Flags, id, addr)
	}
	return mv, true
}

// AppendHit implements the server's single-key hit path by forwarding to
// the owner (or, for hot keys, a round-robin replica with owner fallback)
// and appending the backend's header and value.
func (r *Router) AppendHit(dst, key []byte, id uint64, hdr concurrent.HitHeaderFunc) (out []byte, valueLen int, ok bool) {
	hot, promoted := r.touch(id)
	var ob [8]string
	addr, primary := r.readTarget(id, hot, ob[:])
	mv, err := r.fetch(addr, key)
	if mv, ok = r.settle(key, id, addr, primary, promoted, mv, err); !ok {
		r.misses.Add(1)
		return dst, 0, false
	}
	r.hits.Add(1)
	out = hdr(dst, key, len(mv.Value), mv.Flags, mv.CAS)
	out = append(out, mv.Value...)
	return out, len(mv.Value), true
}

// GetMulti reads every key from the node AppendHit would, as one
// pipelined multi-get per node on its own goroutine — the fan-out/fan-in
// that keeps a 64-key batch at one round trip per node instead of one per
// key — then settles each answer by AppendHit's rule (owner fallback,
// replica-read counting, replication of a key this batch promoted) and
// lays the hits out in request order. A failed node's keys miss.
func (r *Router) GetMulti(dst []byte, keys [][]byte, ids []uint64, out []concurrent.MultiHit) []byte {
	type read struct {
		addr, primary string
		promoted      bool
	}
	reads := make([]read, len(ids))
	eps := make([]*endpoint, len(ids))
	var ob [8]string
	for i, id := range ids {
		hot, promoted := r.touch(id)
		addr, primary := r.readTarget(id, hot, ob[:])
		reads[i] = read{addr, primary, promoted}
		if n := r.node(addr); n != nil {
			eps[i] = n.endpoint
		}
	}
	vals, errs := getMulti(keys, eps)
	for i, rd := range reads {
		mv, ok := r.settle(keys[i], ids[i], rd.addr, rd.primary, rd.promoted, vals[i], errs[i])
		if !ok {
			out[i] = concurrent.MultiHit{}
			r.misses.Add(1)
			continue
		}
		start := len(dst)
		dst = append(dst, mv.Value...)
		out[i] = concurrent.MultiHit{Start: start, End: len(dst), Flags: mv.Flags, CAS: mv.CAS, Hit: true}
		r.hits.Add(1)
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
		for i, addr := range r.ring.LookupN(id, r.cfg.Replicas, ob[:0]) {
			r.send(addr, key, value, flags, expireAt, i > 0)
		}
		return 0
	}
	if addr := r.ring.Lookup(id); addr != "" {
		r.send(addr, key, value, flags, expireAt, false)
	}
	return 0
}

// fan runs op against every live node of id's replica set: replicas may
// hold copies from a past hot episode, so a delete or a touch that only
// reached the owner would leave a stale copy behind (going everywhere is
// cheap and always correct). found reports whether any node answered
// true.
func (r *Router) fan(id uint64, op func(*routerNode, *server.Client) (bool, error)) (found bool) {
	var ob [8]string
	for _, addr := range r.ring.LookupN(id, r.cfg.Replicas, ob[:0]) {
		r.forward(addr, func(n *routerNode, c *server.Client) error {
			ok, err := op(n, c)
			found = found || ok
			return err
		})
	}
	return found
}

// deleteFan removes key from every node in its replica set.
func (r *Router) deleteFan(key []byte, id uint64) bool {
	return r.fan(id, func(n *routerNode, c *server.Client) (bool, error) {
		n.ctr.routedDelete.Add(1)
		return c.Delete(key)
	})
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
// set, so a replica's copy cannot expire out from under a still-live key.
// found reports whether any node had a live entry.
func (r *Router) TouchDigest(key []byte, id uint64, expireAt int64) bool {
	return r.fan(id, func(_ *routerNode, c *server.Client) (bool, error) {
		return c.Touch(key, expireAt)
	})
}

// ExpireAtDigest forwards the expiry lookup to the key's owner via gete.
// The value rides along and is discarded — acceptable for the rare front
// gete against a router, where the subsequent AppendHit re-fetches it.
// A key it cannot find counts as a miss, since no AppendHit follows to
// count it; a found one is counted by the AppendHit that serves it.
func (r *Router) ExpireAtDigest(key []byte, id uint64) (expireAt int64, found bool) {
	err := r.forward(r.ring.Lookup(id), func(_ *routerNode, c *server.Client) (err error) {
		_, _, _, expireAt, found, err = c.GetExp(key)
		return err
	})
	if err != nil || !found {
		r.misses.Add(1)
		return 0, false
	}
	return expireAt, true
}

// Stats reports the router's own operation counters (hits and misses as
// served through the ring, not the backends' internal tallies) plus the
// fleet-aggregate byte accounting and proactive-expiry totals.
func (r *Router) Stats() concurrent.Snapshot {
	fs := r.aggregate()
	return concurrent.Snapshot{
		Hits:        r.hits.Load(),
		Misses:      r.misses.Load(),
		Sets:        r.sets.Load(),
		Deletes:     r.deletes.Load(),
		Expired:     fs.expired,
		Len:         int(fs.items),
		Capacity:    int(fs.capacity),
		UsedBytes:   fs.usedBytes,
		MaxBytes:    fs.maxBytes,
		ValueBytes:  fs.bytes,
		BufferBytes: fs.bufferBytes,
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
	var fs fleetStats
	for _, n := range r.nodeList(true) {
		if n.ejected.Load() {
			continue // don't let the occupancy poll hammer a dead node
		}
		var st map[string]string
		if err := n.do(func(c *server.Client) (err error) {
			st, err = c.Stats()
			return err
		}); err != nil {
			continue
		}
		for _, f := range []struct {
			name string
			dst  *int64
		}{
			{"curr_items", &fs.items},
			{"curr_bytes", &fs.bytes},
			{"capacity_items", &fs.capacity},
			{"used_bytes", &fs.usedBytes},
			{"max_bytes", &fs.maxBytes},
			{"buffer_bytes", &fs.bufferBytes},
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
		for _, n := range r.nodeList(true) {
			r.probeNode(n)
		}
	}
}

// probeNode runs one probe and applies its verdict.
func (r *Router) probeNode(n *routerNode) {
	err := n.probe(r.cfg.ProbeTimeout)
	now := time.Now()
	if err == nil {
		n.probeOK.Add(1)
		// A node the prober can reach is a node the data path may try:
		// close the breaker rather than waiting out its cooldown.
		n.brk.Success()
		if n.det.ObserveSuccess(now) {
			r.readmit(n)
		}
		return
	}
	n.probeFail.Add(1)
	if n.det.ObserveFailure(now) {
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
	if n.ejected.Load() || !n.live.Load() || r.ring.Len() <= 1 {
		r.mu.Unlock()
		return
	}
	if err := r.ring.Remove(n.addr); err != nil {
		r.mu.Unlock()
		return
	}
	n.ejected.Store(true)
	r.mu.Unlock()
	n.ejections.Add(1)
	r.topologyDrops.Add(1)
	r.log.Warn("cluster node ejected by failure detector",
		"node", n.addr, "phi", n.det.Phi(time.Now()), "nodes", r.ring.Len())
}

// readmit restores a recovered node's ring points.
func (r *Router) readmit(n *routerNode) {
	r.mu.Lock()
	if !n.ejected.Load() || !n.live.Load() {
		r.mu.Unlock()
		return
	}
	if err := r.ring.Add(n.addr); err != nil {
		r.mu.Unlock()
		return
	}
	n.ejected.Store(false)
	r.mu.Unlock()
	n.readmissions.Add(1)
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
func registerNodeMetrics(reg *metrics.Registry, n *routerNode) {
	addr, ctr := n.addr, &n.ctr
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
			if n.det.Healthy() {
				return 1
			}
			return 0
		}, "node", addr)
	reg.GaugeFunc("cache_cluster_node_phi", "Phi-accrual suspicion level (eject above the configured threshold).",
		func() float64 { return n.det.Phi(time.Now()) }, "node", addr)
	reg.CounterFunc("cache_cluster_node_ejections_total", "Times the failure detector pulled the node from the ring.",
		n.ejections.Load, "node", addr)
	reg.CounterFunc("cache_cluster_node_readmissions_total", "Times a recovered node was restored to the ring.",
		n.readmissions.Load, "node", addr)
	reg.CounterFunc("cache_cluster_probes_total", "Health probes, by node and result.",
		n.probeOK.Load, "node", addr, "result", "ok")
	reg.CounterFunc("cache_cluster_probes_total", "Health probes, by node and result.",
		n.probeFail.Load, "node", addr, "result", "fail")
	reg.GaugeFunc("cache_breaker_state", "Forwarding breaker position (0 closed, 1 open, 2 half-open).",
		func() float64 { return float64(n.brk.State()) }, "node", addr)
	reg.CounterFunc("cache_breaker_opens_total", "Times the node's forwarding breaker opened.",
		n.brk.Opens, "node", addr)
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
	now := time.Now()
	for _, n := range r.nodeList(false) {
		nodes = append(nodes, NodeSnapshot{
			Addr: n.addr, Live: n.live.Load(),
			RoutedGet: n.ctr.routedGet.Load(), RoutedSet: n.ctr.routedSet.Load(),
			RoutedDelete: n.ctr.routedDelete.Load(), ForwardErrors: n.ctr.forwardErrors.Load(),
			ReplicaReads: n.ctr.replicaReads.Load(), ReplicaWrites: n.ctr.replicaWrites.Load(),
			Healthy: n.det.Healthy(), Ejected: n.ejected.Load(), Phi: n.det.Phi(now),
			Breaker: n.brk.State().String(), Ejections: n.ejections.Load(), Readmissions: n.readmissions.Load(),
		})
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
	for _, n := range r.nodeList(false) {
		n.close()
	}
}

// The router is a drop-in store for the front server.
var _ server.Store = (*Router)(nil)
