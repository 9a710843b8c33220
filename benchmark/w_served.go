package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/concurrent"
)

// The served workloads drive real cacheserver subprocesses over loopback
// TCP. All three are closed loops: a connection sends its next window only
// when the previous one is fully answered, with the client counts below.
// An op is one get together with the set that follows a miss.

const (
	pipelineWindow = 32
	pipelineKeys   = 1 << 18 // 1 KiB values: over 4x what 64 MiB holds
	pipelineValue  = 1024
	// directShare is the share of routed-get's ops repeated straight to one
	// backend, after the timed phase, to price the router hop.
	directShare = 8
)

var backendFlags = []string{"-cache", "qdlp", "-max-entries", "65536", "-shards", "16", "-listeners", "1"}

// keyed is one connection's view of a keyspace: keys, values and a stream.
type keyed struct {
	conn   *wireConn
	keys   rankKeys
	pay    *payloads
	vsize  int
	stream []uint32
}

func (k *keyed) value(rank uint32) []byte { return k.pay.value(uint64(rank), k.vsize) }

type servedInstance struct {
	p      *params
	name   string
	procs  []*child // program under test; clients talk to procs[0]
	conns  []*keyed
	window int // gets per round trip
	// routed-get only: a connection straight to one backend, and the
	// router's admin address.
	direct *keyed
	admin  string
}

func (in *servedInstance) close() {
	for _, k := range in.conns {
		k.conn.close()
	}
	if in.direct != nil {
		in.direct.conn.close()
	}
	for _, c := range in.procs {
		c.stop()
	}
	in.p.env.release()
}

type servedTally struct {
	gets, hits, failed int64
	lat                []float32
}

// phaseClock is what the clients of one timed phase share: the count of
// gets answered, and the slice boundaries the first client marks.
type phaseClock struct {
	procs []*child
	done  atomic.Int64
	marks []mark
	err   error
}

func (c *phaseClock) mark() {
	cpu, err := childrenCPU(c.procs)
	if err != nil && c.err == nil {
		c.err = err
	}
	c.marks = append(c.marks, mark{t: time.Now(), cpu: cpu, ops: c.done.Load()})
}

// exchange sends one window of pipelined gets, reads every reply, then
// sends the window's misses as pipelined sets and reads those replies: the
// sets are a batch barrier between two windows of gets. It returns when the
// gets were answered.
func (k *keyed) exchange(ranks []uint32, missed []uint32, vbuf *[]byte, t *servedTally, sb *spanBuf, root int, op int64) ([]uint32, time.Time, error) {
	sp := -1
	if root >= 0 {
		sp = sb.begin("client.write", root, op)
	}
	for _, r := range ranks {
		k.conn.writeGet(k.keys.key(r))
	}
	if err := k.conn.flush(); err != nil {
		return missed, time.Time{}, err
	}
	if root >= 0 {
		sb.end(sp)
		sp = sb.begin("client.read", root, op)
	}
	missed = missed[:0]
	for _, r := range ranks {
		v, hit, err := readGetReply(k.conn.br, k.keys.key(r), *vbuf)
		*vbuf = v
		t.gets++
		switch {
		case isRefused(err):
			t.failed++
		case err != nil:
			return missed, time.Time{}, err
		case !hit:
			missed = append(missed, r)
		default:
			t.hits++
			if !bytes.Equal(v, k.value(r)) {
				t.failed++
			}
		}
	}
	answered := time.Now()
	if root >= 0 {
		sb.end(sp)
	}
	if len(missed) == 0 {
		return missed, answered, nil
	}
	if root >= 0 {
		sp = sb.begin("client.set", root, op)
	}
	for _, r := range missed {
		k.conn.writeSet(k.keys.key(r), k.value(r))
	}
	if err := k.conn.flush(); err != nil {
		return missed, answered, err
	}
	for range missed {
		if err := readStored(k.conn.br); isRefused(err) {
			t.failed++
		} else if err != nil {
			return missed, answered, err
		}
	}
	if root >= 0 {
		sb.end(sp)
	}
	return missed, answered, nil
}

// drive runs a stream through one connection in windows of the given size.
// With lead set it also marks the clock at its own slice boundaries.
func (k *keyed) drive(name string, stream []uint32, window int, t *servedTally, sb *spanBuf, clock *phaseClock, lead bool) error {
	var missed []uint32
	var vbuf []byte
	slice, nextMark := 1, len(stream)/phaseSlices
	for i := 0; i < len(stream); i += window {
		if lead && i >= nextMark {
			clock.mark()
			slice++
			nextMark = slice * len(stream) / phaseSlices
		}
		ranks := stream[i:min(i+window, len(stream))]
		root := -1
		if sb != nil && i%traceEvery < window {
			root = sb.begin(name+".op", -1, int64(i))
		}
		t0 := time.Now()
		var answered time.Time
		var err error
		missed, answered, err = k.exchange(ranks, missed, &vbuf, t, sb, root, int64(i))
		if err != nil {
			return err
		}
		if root >= 0 {
			sb.end(root)
		}
		clock.done.Add(int64(len(ranks)))
		if t.lat != nil {
			t.lat = append(t.lat, float32(float64(answered.Sub(t0).Nanoseconds())/1e3))
		}
	}
	return nil
}

// warm stores the keys for which own(rank) holds (nil: all of the first n),
// each set followed by a get of the same key. QD-LP-FIFO promotes a key out
// of probation only if it was read there, and its byte-capped ghost is empty
// on a cold start, so a fill of sets alone would be forgotten.
func (k *keyed) warm(n int, own func(rank uint32) bool) error {
	var all []uint32
	for r := uint32(0); r < uint32(n); r++ {
		if own == nil || own(r) {
			all = append(all, r)
		}
	}
	const chunk = 128
	var vbuf []byte
	for i := 0; i < len(all); i += chunk {
		part := all[i:min(i+chunk, len(all))]
		for _, r := range part {
			k.conn.writeSet(k.keys.key(r), k.value(r))
			k.conn.writeGet(k.keys.key(r))
		}
		if err := k.conn.flush(); err != nil {
			return err
		}
		for _, r := range part {
			if err := readStored(k.conn.br); err != nil {
				return err
			}
			v, _, err := readGetReply(k.conn.br, k.keys.key(r), vbuf)
			if vbuf = v; err != nil {
				return err
			}
		}
	}
	return nil
}

func connect(addr string, keys rankKeys, pay *payloads, vsize int, stream []uint32) (*keyed, error) {
	c, err := dialWire(addr)
	if err != nil {
		return nil, err
	}
	return &keyed{conn: c, keys: keys, pay: pay, vsize: vsize, stream: stream}, nil
}

func setupServedGet(p *params, ops int) (inst instance, err error) {
	in := &servedInstance{p: p, name: "served-get", window: 1}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	p.env.oneCPU()
	srv, err := p.env.spawn(backendFlags...)
	if err != nil {
		return nil, err
	}
	in.procs = []*child{srv}
	keys, pay := newRankKeys('k', hotKeys), newPayloads(p.seed)
	const clients = 2
	for i := 0; i < clients; i++ {
		k, err := connect(srv.addr, keys, pay, 64, zipfStream(subSeed(p.seed, i), hotKeys, ops/clients, 1.0))
		if err != nil {
			return nil, err
		}
		in.conns = append(in.conns, k)
	}
	return in, in.conns[0].warm(hotKeys, nil)
}

func setupServedPipeline(p *params, ops int) (inst instance, err error) {
	in := &servedInstance{p: p, name: "served-pipeline", window: pipelineWindow}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	p.env.oneCPU()
	srv, err := p.env.spawn("-cache", "qdlp", "-max-bytes", "64mib", "-shards", "16", "-listeners", "1")
	if err != nil {
		return nil, err
	}
	in.procs = []*child{srv}
	k, err := connect(srv.addr, newRankKeys('k', pipelineKeys), newPayloads(p.seed), pipelineValue,
		zipfStream(subSeed(p.seed, 0), pipelineKeys, ops, 1.0))
	if err != nil {
		return nil, err
	}
	in.conns = []*keyed{k}
	// Warm with the most popular keys that fit with room to spare; a warm
	// set larger than the budget would turn the read-back passes into a scan
	// that evicts everything it is about to read.
	return in, k.warm(pipelineKeys*3/16, nil)
}

func setupRoutedGet(p *params, ops int) (inst instance, err error) {
	in := &servedInstance{p: p, name: "routed-get", window: 1}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	p.env.oneCPU()
	var backends []*child
	for i := 0; i < 2; i++ {
		b, err := p.env.spawn(backendFlags...)
		if err != nil {
			return nil, err
		}
		in.procs = append(in.procs, b)
		backends = append(backends, b)
	}
	if in.admin, err = freeAddr(); err != nil {
		return nil, err
	}
	router, err := p.env.spawn("-route", backends[0].addr+","+backends[1].addr, "-replicas", "2", "-hot-threshold", "8",
		"-listeners", "1", "-admin-addr", in.admin)
	if err != nil {
		return nil, err
	}
	in.procs = append([]*child{router}, in.procs...)
	pay := newPayloads(p.seed)
	stream := zipfStream(subSeed(p.seed, 0), hotKeys, ops, 1.0)
	keys := newRankKeys('k', hotKeys)
	// Warm each backend directly with the keys the router's ring (seed and
	// virtual nodes at their flag defaults) gives it: the same end state as
	// a warm fill through the router at a tenth of the set-up time.
	ring, err := cluster.NewRing(0, 0, backends[0].addr, backends[1].addr)
	if err != nil {
		return nil, err
	}
	for _, b := range backends {
		k, err := connect(b.addr, keys, pay, 64, nil)
		if err != nil {
			return nil, err
		}
		err = k.warm(hotKeys, func(r uint32) bool { return ring.Lookup(concurrent.Digest(keys.key(r))) == b.addr })
		k.conn.close()
		if err != nil {
			return nil, err
		}
	}
	k, err := connect(router.addr, keys, pay, 64, stream)
	if err != nil {
		return nil, err
	}
	in.conns = []*keyed{k}
	// The direct connection uses its own key prefix, so what it stores on
	// the backend never answers a routed get.
	in.direct, err = connect(backends[0].addr, newRankKeys('d', hotKeys), pay, 64, stream[:max(len(stream)/directShare, 1)])
	if err != nil {
		return nil, err
	}
	return in, in.direct.warm(hotKeys, nil)
}

func (in *servedInstance) run(tr *tracer) (*outcome, error) {
	if in.p.corrupt {
		in.conns[0].pay.corrupt()
	}
	front := in.conns[0].conn
	tallies := make([]servedTally, len(in.conns))
	bufs := make([]*spanBuf, len(in.conns))
	for i, k := range in.conns {
		tallies[i].lat = make([]float32, 0, len(k.stream)/in.window+1)
		bufs[i] = tr.buf()
	}
	before, err := front.stats()
	if err != nil {
		return nil, err
	}
	clock := &phaseClock{procs: in.procs}
	errs := make([]error, len(in.conns))
	var wg sync.WaitGroup
	clock.mark()
	for i, k := range in.conns {
		wg.Add(1)
		go func(i int, k *keyed) {
			defer wg.Done()
			errs[i] = k.drive(in.name, k.stream, in.window, &tallies[i], bufs[i], clock, i == 0)
		}(i, k)
	}
	wg.Wait()
	clock.mark()
	o := &outcome{marks: clock.marks, latWhat: "client round trip"}
	if in.window > 1 {
		o.latWhat = fmt.Sprintf("round trip of one %d-get window", in.window)
	}
	for _, err := range append(errs, clock.err) {
		if err != nil {
			return nil, err
		}
	}
	if o.rssKiB, err = childrenPeakRSSKiB(in.procs); err != nil {
		return nil, err
	}
	for i := range tallies {
		o.gets += tallies[i].gets
		o.hits += tallies[i].hits
		o.failed += tallies[i].failed
		o.lat = append(o.lat, tallies[i].lat)
	}
	o.ops = o.gets

	after, err := front.stats()
	if err != nil {
		return nil, err
	}
	dh, dm := statInt(after, "get_hits")-statInt(before, "get_hits"), statInt(after, "get_misses")-statInt(before, "get_misses")
	o.check("server-stats-equal-tallies", dh == o.hits && dm == o.gets-o.hits,
		"stats get_hits %d get_misses %d, tallied hits %d misses %d", dh, dm, o.hits, o.gets-o.hits)
	if mb := statInt(after, "max_bytes"); mb > 0 {
		o.check("used-bytes-within-budget", statInt(after, "used_bytes") <= mb, "used %d of %d bytes", statInt(after, "used_bytes"), mb)
		o.note("concurrent.kv.used_bytes_share", float64(statInt(after, "used_bytes"))/float64(mb), "ratio")
	} else {
		o.check("items-within-capacity", statInt(after, "curr_items") <= statInt(after, "capacity_items"),
			"%d items, capacity %d", statInt(after, "curr_items"), statInt(after, "capacity_items"))
	}
	if in.direct == nil {
		// A router has no flush or batch counters of its own to report.
		requests := float64(statInt(after, "cmd_get") - statInt(before, "cmd_get") + statInt(after, "cmd_set") - statInt(before, "cmd_set"))
		o.note("server.flushes_per_op", float64(statInt(after, "flushes")-statInt(before, "flushes"))/float64(o.ops), "ratio")
		if b := statInt(after, "batches") - statInt(before, "batches"); b > 0 {
			o.note("server.requests_per_batch", float64(statInt(after, "batched_requests")-statInt(before, "batched_requests"))/float64(b), "ratio")
		}
		o.note("server.requests_per_op", requests/float64(o.ops), "ratio")
		return o, nil
	}
	return o, in.runDirect(o)
}

// clusterPage is the part of the router's /cluster?format=json this
// benchmark reads.
type clusterPage struct {
	HotPromotions int64 `json:"hot_promotions"`
	PerNode       []struct {
		RoutedGet     int64 `json:"routed_get"`
		ForwardErrors int64 `json:"forward_errors"`
		ReplicaReads  int64 `json:"replica_reads"`
	} `json:"per_node"`
}

// runDirect repeats a share of the routed stream straight to one backend
// and reads the router's own counters.
func (in *servedInstance) runDirect(o *outcome) error {
	t := servedTally{lat: make([]float32, 0, len(in.direct.stream))}
	if err := in.direct.drive("direct", in.direct.stream, 1, &t, nil, &phaseClock{}, false); err != nil {
		return err
	}
	o.failed += t.failed
	routed, direct := float64(o.hits)/float64(o.gets), float64(t.hits)/float64(t.gets)
	o.check("routed-hit-ratio-near-direct", routed-direct < 0.02 && direct-routed < 0.02, "routed %.4f, direct %.4f", routed, direct)
	hop := slicePercentile(o.lat, phaseSlices, 0.5) - slicePercentile([][]float32{t.lat}, phaseSlices, 0.5)
	o.note("cluster.router_hop_us", hop, fmt.Sprintf("us (routed p50 minus direct p50 over %d direct gets)", t.gets))

	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + in.admin + "/cluster?format=json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var page clusterPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return fmt.Errorf("router /cluster: %w", err)
	}
	var fwdErrs, routedGets, replicaReads int64
	for _, n := range page.PerNode {
		fwdErrs += n.ForwardErrors
		routedGets += n.RoutedGet
		replicaReads += n.ReplicaReads
	}
	o.check("router-forward-errors-zero", fwdErrs == 0, "%d forward errors over %d routed gets", fwdErrs, routedGets)
	o.note("cluster.hot_promotions", float64(page.HotPromotions), "count")
	if routedGets > 0 {
		o.note("cluster.replica_reads_share", float64(replicaReads)/float64(routedGets), "ratio")
	}
	return nil
}

func pipelineLayers(p *params) layerInput {
	return layerInput{ids: widen(zipfStream(subSeed(p.seed, 0), pipelineKeys, ladderOps, 1.0)), size: fixedSize(pipelineValue), maxBytes: 64 << 20}
}
